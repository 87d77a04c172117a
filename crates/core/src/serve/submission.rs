//! The submission path: direct and storm-safe submission, the bounded
//! deferred-admission queue, and its admission rounds.

use rtseed_analysis::{Admission, AdmissionDecision};
use rtseed_model::{TaskSpec, TenantId, TenantState, Time};

use crate::obs::TraceEvent;

use super::guard::{
    deferred_backoff, LadderRung, RejectReason, ServeError, Submission, QUEUE_DEPTH, RETRY_DEADLINE,
};
use super::session::{NameSlot, SessionManager};

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
        match self.submit_one(name.into(), tasks, false) {
            Submission::Admitted(tenant) => Ok(tenant),
            Submission::Rejected(reason) => Err(ServeError::Rejected(reason)),
            Submission::Deferred => unreachable!("a strict submission never defers"),
        }
    }

    /// Storm-safe submission: like [`SessionManager::submit`], but a
    /// capacity failure parks the submission on the bounded deferred
    /// queue (when the guard is armed) instead of rejecting it, and a
    /// quarantined tenant's submission is deferred until its quarantine
    /// lifts or the retry deadline expires. Churn-plan arrivals take this
    /// path.
    pub fn submit_or_defer(&mut self, name: impl Into<String>, tasks: &[TaskSpec]) -> Submission {
        self.submit_one(name.into(), tasks, true)
    }

    /// One submission, start to finish: count it, look its name up, gate
    /// it, test it, then bind the admission, park the submission (only
    /// where the caller `may_defer`), or reject it.
    fn submit_one(&mut self, name: String, tasks: &[TaskSpec], may_defer: bool) -> Submission {
        self.counters.submissions += 1;
        let slot = self.find_name(&name);
        match self.verdict(slot, tasks) {
            Ok(admission) => {
                Submission::Admitted(self.bind_admission(name, slot, tasks, admission))
            }
            Err(reason) if may_defer && self.defers(reason) => {
                self.defer(name, slot, tasks.to_vec())
            }
            Err(reason) => Submission::Rejected(self.record_rejection(name, slot, reason)),
        }
    }

    /// The verdict on one submission: the guard's word on the name at
    /// `slot` first (barred if evicted for good or quarantined for now; a
    /// name never recorded is neither), then the admission test on
    /// `tasks` — an admission to bind, or the typed reason there is none.
    fn verdict(&mut self, slot: NameSlot, tasks: &[TaskSpec]) -> Result<Admission, RejectReason> {
        let rung = slot.id.map_or(LadderRung::Normal, |id| self.guard.rung(id));
        match rung {
            LadderRung::Evicted => return Err(RejectReason::Evicted),
            LadderRung::Quarantined => return Err(RejectReason::Quarantined),
            _ => {}
        }
        match self.ctl.try_admit(tasks) {
            AdmissionDecision::Admitted(admission) => Ok(admission),
            AdmissionDecision::Rejected(reason) => Err(reason.into()),
            AdmissionDecision::NeedsFullRecompute { .. } => {
                unreachable!("admission never defers to a full recompute")
            }
        }
    }

    /// Whether a submission that failed for `reason` is worth keeping: a
    /// quarantine lifts, and capacity comes back — but only an armed
    /// guard runs the deferred queue that waits for it.
    fn defers(&self, reason: RejectReason) -> bool {
        match reason {
            RejectReason::Quarantined => true,
            RejectReason::Unschedulable { .. } => self.guard.enabled(),
            _ => false,
        }
    }

    /// Records a rejection: per-reason counters, trace event, and a
    /// `Rejected` entry in the tenant table. Returns the reason.
    pub(super) fn record_rejection(
        &mut self,
        name: String,
        slot: NameSlot,
        reason: RejectReason,
    ) -> RejectReason {
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
        self.des.eng.trace(self.des.now, TraceEvent::TenantRejected { tenant, reason });
        self.push_tenant(name, slot, TenantState::Rejected, Vec::new());
        reason
    }

    /// Parks a submission on the deferred queue (or backpressures when
    /// the queue holds [`QUEUE_DEPTH`] entries).
    pub(super) fn defer(
        &mut self,
        name: String,
        slot: NameSlot,
        tasks: Vec<TaskSpec>,
    ) -> Submission {
        if self.deferred.len() >= QUEUE_DEPTH {
            let reason = RejectReason::QueueFull;
            return Submission::Rejected(self.record_rejection(name, slot, reason));
        }
        self.counters.deferred_submissions += 1;
        if self.des.eng.tracing() {
            self.des.eng.trace(self.des.now, TraceEvent::SubmissionDeferred { name: name.clone() });
        }
        self.deferred.push_back(Deferred {
            name,
            tasks,
            since: self.des.now,
            deadline: self.des.now + RETRY_DEADLINE,
            next_retry: self.des.now + deferred_backoff(0),
            attempts: 0,
        });
        Submission::Deferred
    }

    /// Earliest scheduled retry among deferred submissions.
    pub(super) fn next_deferred_at(&self) -> Option<Time> {
        self.deferred.iter().map(|d| d.next_retry).min()
    }

    /// One admission round over the deferred queue. With `force` every
    /// entry is tried now (capacity was just freed); otherwise only
    /// entries whose backoff expired are tried. Each tried entry is gated,
    /// tested and settled before the next, in queue order. Entries that
    /// still fail back off exponentially until their retry deadline and
    /// keep their place in the queue.
    pub(super) fn admission_round(&mut self, force: bool) {
        if self.deferred.is_empty() {
            return;
        }
        self.counters.admission_rounds += 1;
        let mut queue = std::mem::take(&mut self.deferred);
        for _ in 0..queue.len() {
            let d = queue.pop_front().expect("one pop per entry");
            if !force && d.next_retry > self.des.now {
                // The backoff has not expired: the entry is carried over.
                queue.push_back(d);
                continue;
            }
            let slot = self.find_name(&d.name);
            match self.verdict(slot, &d.tasks) {
                Ok(admission) => {
                    let waited = self.des.now.saturating_elapsed_since(d.since);
                    let tenant = self.bind_admission(d.name, slot, &d.tasks, admission);
                    self.counters.deferred_admissions += 1;
                    self.deferred_latency.record_span(waited);
                    if self.des.eng.tracing() {
                        self.des.eng.trace(
                            self.des.now,
                            TraceEvent::DeferredAdmitted { tenant, waited },
                        );
                    }
                }
                Err(reason) if self.defers(reason) => {
                    if let Some(d) = self.backoff_or_expire(d, slot) {
                        queue.push_back(d);
                    }
                }
                Err(reason) => {
                    self.record_rejection(d.name, slot, reason);
                }
            }
        }
        self.deferred = queue;
    }

    /// The still-failing tail of a retry: reject past the deadline,
    /// otherwise double the backoff (capped) and keep the entry parked.
    fn backoff_or_expire(&mut self, mut d: Deferred, slot: NameSlot) -> Option<Deferred> {
        if self.des.now >= d.deadline {
            self.record_rejection(d.name, slot, RejectReason::RetryDeadline);
            return None;
        }
        d.attempts += 1;
        // Strictly after `now` (deadline > now here), so retries make
        // progress.
        d.next_retry = (self.des.now + deferred_backoff(d.attempts)).min(d.deadline);
        Some(d)
    }
}
