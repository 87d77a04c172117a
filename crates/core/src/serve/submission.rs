//! The submission path: direct and storm-safe submission, the bounded
//! deferred-admission queue, and batched admission rounds over the
//! sharded admission control.

use std::collections::VecDeque;

use rtseed_analysis::AdmissionDecision;
use rtseed_model::{SessionId, Span, TaskSpec, TenantId, TenantState, Time};

use crate::obs::TraceEvent;

use super::guard::{LadderRung, RejectReason, ServeError, Submission};
use super::session::{SessionManager, Tenant};

/// A submission parked on the bounded deferred-admission queue.
#[derive(Debug, Clone)]
pub(super) struct Deferred {
    pub(super) name: String,
    pub(super) tasks: Vec<TaskSpec>,
    /// When the submission was first deferred (for the latency histogram).
    pub(super) since: Time,
    /// Hard bound: at or past this instant the submission is rejected
    /// with [`RejectReason::RetryDeadline`].
    pub(super) deadline: Time,
    /// Next scheduled retry (exponential backoff, clamped to `deadline`).
    pub(super) next_retry: Time,
    pub(super) attempts: u32,
}

/// The fate a queue entry was tagged with during the first pass of a
/// batched admission round, before any admission test ran.
enum RoundSlot {
    /// Backoff has not expired — carried over untouched.
    NotDue(Deferred),
    /// The guard bars the name outright.
    Evicted(Deferred),
    /// Quarantined: skip the admission test, keep waiting (or expire).
    Quarantined(Deferred),
    /// In the batch handed to the sharded admission control.
    Try(Deferred),
}

impl SessionManager {
    /// Submits a tenant's task set for admission.
    ///
    /// On admission the tenant's tasks release their first jobs
    /// immediately; co-located residents' optional deadlines shrink per
    /// the analysis (taking effect at their next release). On rejection
    /// the running system is untouched — the tenant is recorded as
    /// [`TenantState::Rejected`] and appears in the final
    /// [`ServeOutcome::tenants`](super::ServeOutcome::tenants) with empty
    /// QoS.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] with the typed [`RejectReason`]:
    /// [`RejectReason::Unschedulable`] when some submitted task fits on
    /// no hardware thread under the exact RMWP test,
    /// [`RejectReason::EmptySubmission`] for an empty slice, and
    /// [`RejectReason::Quarantined`]/[`RejectReason::Evicted`] when the
    /// armed guard bars the tenant name.
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        tasks: &[TaskSpec],
    ) -> Result<TenantId, ServeError> {
        let name = name.into();
        self.counters.submissions += 1;
        match self.guard.rung(&name) {
            LadderRung::Evicted => {
                Err(ServeError::Rejected(self.record_rejection(name, RejectReason::Evicted)))
            }
            LadderRung::Quarantined => {
                Err(ServeError::Rejected(self.record_rejection(name, RejectReason::Quarantined)))
            }
            _ => match self.ctl.try_admit(tasks) {
                AdmissionDecision::Admitted(admission) => {
                    Ok(self.bind_admission(name, tasks, admission))
                }
                AdmissionDecision::Rejected(reason) => {
                    Err(ServeError::Rejected(self.record_rejection(name, reason.into())))
                }
                AdmissionDecision::NeedsFullRecompute { .. } => {
                    unreachable!("admission never defers to a full recompute")
                }
            },
        }
    }

    /// Storm-safe submission: like [`SessionManager::submit`], but a
    /// capacity failure parks the submission on the bounded deferred
    /// queue (when the guard is armed) instead of rejecting it, and a
    /// quarantined tenant's submission is deferred until its quarantine
    /// lifts or the retry deadline expires. Churn-plan arrivals take this
    /// path.
    pub fn submit_or_defer(&mut self, name: impl Into<String>, tasks: &[TaskSpec]) -> Submission {
        let name = name.into();
        self.counters.submissions += 1;
        match self.guard.rung(&name) {
            LadderRung::Evicted => {
                Submission::Rejected(self.record_rejection(name, RejectReason::Evicted))
            }
            LadderRung::Quarantined => self.defer(name, tasks.to_vec()),
            _ => match self.ctl.try_admit(tasks) {
                AdmissionDecision::Admitted(admission) => {
                    Submission::Admitted(self.bind_admission(name, tasks, admission))
                }
                AdmissionDecision::Rejected(r) => {
                    let reason = RejectReason::from(r);
                    if self.guard.enabled()
                        && matches!(reason, RejectReason::Unschedulable { .. })
                    {
                        self.defer(name, tasks.to_vec())
                    } else {
                        Submission::Rejected(self.record_rejection(name, reason))
                    }
                }
                AdmissionDecision::NeedsFullRecompute { .. } => {
                    unreachable!("admission never defers to a full recompute")
                }
            },
        }
    }

    /// Submits many tenants in one batched admission round: entries
    /// routed to disjoint admission shards are analyzed in parallel on OS
    /// threads (when [`SessionManager::with_shards`] armed more than one
    /// shard), and each entry gets exactly the verdict
    /// [`SessionManager::submit_or_defer`] would have produced for the
    /// same arrival order — admissions bind, guard-barred and hopeless
    /// entries are rejected, capacity failures defer when the guard is
    /// armed. Results, tenant ids, traces, and the deferred queue all
    /// follow submission order regardless of the shard fan-out.
    pub fn submit_batch(
        &mut self,
        submissions: &[(String, Vec<TaskSpec>)],
    ) -> Vec<Submission> {
        enum Pre {
            Evicted,
            Quarantined,
            Try,
        }
        let mut pre = Vec::with_capacity(submissions.len());
        let mut batch = Vec::new();
        for (name, tasks) in submissions {
            self.counters.submissions += 1;
            match self.guard.rung(name) {
                LadderRung::Evicted => pre.push(Pre::Evicted),
                LadderRung::Quarantined => pre.push(Pre::Quarantined),
                _ => {
                    batch.push(tasks.clone());
                    pre.push(Pre::Try);
                }
            }
        }
        let mut decisions = self.ctl.admit_batch(&batch).into_iter();
        self.counters.parallel_admission_rounds = self.ctl.parallel_rounds();
        let mut out = Vec::with_capacity(submissions.len());
        for (slot, (name, tasks)) in pre.into_iter().zip(submissions) {
            let submission = match slot {
                Pre::Evicted => {
                    Submission::Rejected(self.record_rejection(name.clone(), RejectReason::Evicted))
                }
                Pre::Quarantined => self.defer(name.clone(), tasks.clone()),
                Pre::Try => match decisions.next().expect("one decision per batched entry") {
                    AdmissionDecision::Admitted(admission) => {
                        Submission::Admitted(self.bind_admission(name.clone(), tasks, admission))
                    }
                    AdmissionDecision::Rejected(r) => {
                        let reason = RejectReason::from(r);
                        if self.guard.enabled()
                            && matches!(reason, RejectReason::Unschedulable { .. })
                        {
                            self.defer(name.clone(), tasks.clone())
                        } else {
                            Submission::Rejected(self.record_rejection(name.clone(), reason))
                        }
                    }
                    AdmissionDecision::NeedsFullRecompute { .. } => {
                        unreachable!("admission never defers to a full recompute")
                    }
                },
            };
            out.push(submission);
        }
        out
    }

    /// Records a rejection: per-reason counters, trace event, and a
    /// `Rejected` entry in the tenant table. Returns the reason.
    pub(super) fn record_rejection(&mut self, name: String, reason: RejectReason) -> RejectReason {
        self.counters.rejections += 1;
        match reason {
            RejectReason::Unschedulable { .. } => self.counters.rejected_capacity += 1,
            RejectReason::EmptySubmission => self.counters.rejected_empty += 1,
            RejectReason::Quarantined => self.counters.rejected_quarantined += 1,
            RejectReason::Evicted => self.counters.rejected_evicted += 1,
            RejectReason::QueueFull => self.counters.rejected_queue_full += 1,
            RejectReason::RetryDeadline => self.counters.rejected_deadline += 1,
        }
        let tenant = TenantId(self.tenants.len() as u32);
        let session = SessionId(tenant.0 as u64);
        self.des.eng.trace(self.des.now, TraceEvent::TenantRejected { tenant, reason });
        self.tenants.push(Tenant {
            id: tenant,
            session,
            name,
            state: TenantState::Rejected,
            tasks: Vec::new(),
        });
        reason
    }

    /// Parks a submission on the deferred queue (or backpressures when
    /// the queue is at [`GuardConfig::queue_depth`](super::GuardConfig::queue_depth)).
    pub(super) fn defer(&mut self, name: String, tasks: Vec<TaskSpec>) -> Submission {
        let cfg = self.guard.cfg();
        if self.deferred.len() >= cfg.queue_depth {
            return Submission::Rejected(self.record_rejection(name, RejectReason::QueueFull));
        }
        self.counters.deferred_submissions += 1;
        if self.des.eng.tracing() {
            self.des.eng.trace(self.des.now, TraceEvent::SubmissionDeferred { name: name.clone() });
        }
        self.deferred.push_back(Deferred {
            name,
            tasks,
            since: self.des.now,
            deadline: self.des.now + cfg.retry_deadline,
            next_retry: self.des.now + cfg.retry_backoff.max(Span::from_nanos(1)),
            attempts: 0,
        });
        Submission::Deferred
    }

    /// Earliest scheduled retry among deferred submissions.
    pub(super) fn next_deferred_at(&self) -> Option<Time> {
        self.deferred.iter().map(|d| d.next_retry).min()
    }

    /// One batched admission round over the deferred queue. With `force`
    /// every entry is tried now (capacity was just freed); otherwise only
    /// entries whose backoff expired are tried. Entries that still fail
    /// back off exponentially until their retry deadline.
    ///
    /// The round runs in three passes: (1) tag every queue entry without
    /// testing anything, (2) hand the testable entries to the sharded
    /// admission control as **one batch** — disjoint shards analyze in
    /// parallel when more than one is armed — and (3) apply the decisions
    /// in queue order, so counters, tenant ids, traces, and the surviving
    /// queue are byte-identical to testing the entries one at a time.
    pub(super) fn admission_round(&mut self, force: bool) {
        if self.deferred.is_empty() {
            return;
        }
        self.counters.admission_rounds += 1;
        let queue = std::mem::take(&mut self.deferred);
        let mut slots = Vec::with_capacity(queue.len());
        let mut batch = Vec::new();
        for d in queue {
            if !(force || d.next_retry <= self.des.now) {
                slots.push(RoundSlot::NotDue(d));
                continue;
            }
            match self.guard.rung(&d.name) {
                LadderRung::Evicted => slots.push(RoundSlot::Evicted(d)),
                LadderRung::Quarantined => slots.push(RoundSlot::Quarantined(d)),
                _ => {
                    batch.push(d.tasks.clone());
                    slots.push(RoundSlot::Try(d));
                }
            }
        }
        let mut decisions = self.ctl.admit_batch(&batch).into_iter();
        self.counters.parallel_admission_rounds = self.ctl.parallel_rounds();
        let mut remaining = VecDeque::with_capacity(slots.len());
        for slot in slots {
            match slot {
                RoundSlot::NotDue(d) => remaining.push_back(d),
                RoundSlot::Evicted(d) => {
                    self.record_rejection(d.name, RejectReason::Evicted);
                }
                RoundSlot::Quarantined(d) => {
                    if let Some(d) = self.backoff_or_expire(d) {
                        remaining.push_back(d);
                    }
                }
                RoundSlot::Try(d) => {
                    match decisions.next().expect("one decision per batched entry") {
                        AdmissionDecision::Admitted(admission) => {
                            let waited = self.des.now.saturating_elapsed_since(d.since);
                            let tenant = self.bind_admission(d.name, &d.tasks, admission);
                            self.counters.deferred_admissions += 1;
                            self.deferred_latency.record_span(waited);
                            if self.des.eng.tracing() {
                                self.des.eng.trace(
                                    self.des.now,
                                    TraceEvent::DeferredAdmitted { tenant, waited },
                                );
                            }
                        }
                        AdmissionDecision::Rejected(
                            rtseed_analysis::RejectReason::EmptySubmission,
                        ) => {
                            self.record_rejection(d.name, RejectReason::EmptySubmission);
                        }
                        _ => {
                            if let Some(d) = self.backoff_or_expire(d) {
                                remaining.push_back(d);
                            }
                        }
                    }
                }
            }
        }
        self.deferred = remaining;
    }

    /// The still-failing tail of a retry: reject past the deadline,
    /// otherwise double the backoff (capped) and keep the entry parked.
    fn backoff_or_expire(&mut self, mut d: Deferred) -> Option<Deferred> {
        if self.des.now >= d.deadline {
            self.record_rejection(d.name, RejectReason::RetryDeadline);
            return None;
        }
        d.attempts += 1;
        let cfg = self.guard.cfg();
        let mut backoff = cfg.retry_backoff.max(Span::from_nanos(1));
        for _ in 0..d.attempts.min(32) {
            if backoff >= cfg.retry_backoff_cap {
                break;
            }
            backoff = (backoff * 2).min(cfg.retry_backoff_cap);
        }
        // Strictly after `now` (deadline > now here), so retries make
        // progress even with a degenerate zero backoff.
        d.next_retry = (self.des.now + backoff.max(Span::from_nanos(1))).min(d.deadline);
        Some(d)
    }
}
