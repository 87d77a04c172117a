//! The unified trace-event schema.
//!
//! One [`TraceEvent`] type covers everything the middleware does, across
//! every backend: part transitions of the parallel-extended imprecise
//! model (mandatory → optional → wind-up), queue operations on the four
//! priority bands (HPQ/RTQ/NRTQ/SQ), one-shot optional-deadline timer
//! lifecycle, assignment-policy decisions, supervisor and fault-injection
//! events, and trading-pipeline stages. Producers live in
//! [`crate::exec_sim`], [`crate::exec_global`], [`crate::runtime`], and
//! `rtseed-trading`; consumers are the exporters in [`crate::obs::export`]
//! and test assertions.

use rtseed_model::{HwThreadId, JobId, OptionalOutcome, PartId, Priority, Span, Time};
use rtseed_sim::{FaultTarget, TimerFault};

use crate::serve::guard::RejectReason;

/// One of RT-Seed's four scheduling queues (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueBand {
    /// The reserved highest-priority queue (SCHED_FIFO level 99).
    Hpq,
    /// The real-time queue: mandatory/wind-up threads, levels 50–98.
    Rtq,
    /// The non-real-time queue: parallel optional threads, levels 1–49.
    Nrtq,
    /// The sleep queue: jobs waiting for a release or the optional deadline.
    Sq,
}

impl QueueBand {
    /// Classifies a SCHED_FIFO priority level into its ready-queue band.
    #[inline]
    pub const fn of(priority: Priority) -> QueueBand {
        if priority.is_hpq() {
            QueueBand::Hpq
        } else if priority.is_mandatory_band() {
            QueueBand::Rtq
        } else {
            QueueBand::Nrtq
        }
    }

    /// Short uppercase name as used in the paper ("HPQ", "RTQ", …).
    pub const fn name(self) -> &'static str {
        match self {
            QueueBand::Hpq => "HPQ",
            QueueBand::Rtq => "RTQ",
            QueueBand::Nrtq => "NRTQ",
            QueueBand::Sq => "SQ",
        }
    }
}

/// What happened to a queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueOp {
    /// Work was appended to the band (FIFO within a level).
    Enqueue,
    /// Work was popped and handed to a hardware thread.
    Dispatch,
    /// Work was removed without dispatching (stopped/cancelled/woken).
    Remove,
}

impl QueueOp {
    /// Lowercase verb for exporters.
    pub const fn name(self) -> &'static str {
        match self {
            QueueOp::Enqueue => "enqueue",
            QueueOp::Dispatch => "dispatch",
            QueueOp::Remove => "remove",
        }
    }
}

/// A stage of the imprecise trading pipeline (`rtseed-trading`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Mandatory part: market-data ingest and validation.
    Ingest,
    /// Optional part: one parallel strategy analysis.
    Analysis,
    /// Wind-up part: aggregate opinions and route the order.
    Decide,
}

impl PipelineStage {
    /// Lowercase stage name for exporters.
    pub const fn name(self) -> &'static str {
        match self {
            PipelineStage::Ingest => "ingest",
            PipelineStage::Analysis => "analysis",
            PipelineStage::Decide => "decide",
        }
    }
}

/// One traced occurrence, timestamped by the recording [`super::Trace`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    // ── part transitions ──────────────────────────────────────────────
    /// A job was released (periodic release or initial synchronous release).
    JobReleased {
        /// The released job.
        job: JobId,
    },
    /// The engine bound the released job's real-time parts to a host CPU
    /// at release time (semi-partitioned split tasks only: even jobs run
    /// wholly on the primary CPU, odd jobs wholly on the secondary —
    /// migration happens only at this job boundary, never mid-job).
    JobBound {
        /// The bound job.
        job: JobId,
        /// The hardware thread every real-time part of this job runs on.
        hw: HwThreadId,
    },
    /// The mandatory part began executing on `hw`.
    MandatoryStarted {
        /// The job.
        job: JobId,
        /// Pinned hardware thread.
        hw: HwThreadId,
    },
    /// The mandatory part completed.
    MandatoryCompleted {
        /// The job.
        job: JobId,
    },
    /// An optional part began executing on `hw`.
    OptionalStarted {
        /// The job.
        job: JobId,
        /// Which parallel optional part.
        part: PartId,
        /// The hardware thread it was placed on.
        hw: HwThreadId,
    },
    /// An optional part reached a terminal state.
    OptionalEnded {
        /// The job.
        job: JobId,
        /// Which parallel optional part.
        part: PartId,
        /// How it ended.
        outcome: OptionalOutcome,
        /// How much execution it achieved.
        achieved: Span,
    },
    /// The wind-up part began executing.
    WindupStarted {
        /// The job.
        job: JobId,
    },
    /// The wind-up part completed.
    WindupCompleted {
        /// The job.
        job: JobId,
        /// Whether the deadline was met.
        deadline_met: bool,
    },

    // ── queue operations ──────────────────────────────────────────────
    /// Work moved through one of the four scheduling queues.
    Queue {
        /// Which band.
        band: QueueBand,
        /// What happened.
        op: QueueOp,
        /// The affected job.
        job: JobId,
        /// The hardware thread involved (absent for e.g. SQ parks).
        hw: Option<HwThreadId>,
    },

    // ── optional-deadline timer ───────────────────────────────────────
    /// The one-shot optional-deadline timer was armed for a job.
    TimerArmed {
        /// The job.
        job: JobId,
        /// When it will fire (absolute, possibly fault-perturbed).
        at: Time,
    },
    /// The optional-deadline timer fired for a job.
    OptionalDeadlineExpired {
        /// The job.
        job: JobId,
    },
    /// The armed timer became unnecessary (all optional parts finished
    /// early) and was cancelled.
    TimerCancelled {
        /// The job.
        job: JobId,
    },

    // ── scheduling decisions ──────────────────────────────────────────
    /// The assignment policy fixed the optional-part placement for a task
    /// at admission (paper §IV-C).
    PolicyDecision {
        /// The task whose optional parts were placed.
        task: rtseed_model::TaskId,
        /// `AssignmentPolicy::label()` of the deciding policy.
        policy: String,
        /// Number of parallel optional parts placed.
        parts: u32,
        /// Distinct physical cores the placement spans.
        distinct_cores: usize,
    },
    /// A migratable thread moved between hardware threads (G-RMWP only).
    Migrated {
        /// The migrating job.
        job: JobId,
        /// Where it ran before.
        from: HwThreadId,
        /// Where it runs now.
        to: HwThreadId,
    },

    // ── faults and overload supervision ───────────────────────────────
    /// The fault plan inflated a real-time part's execution demand.
    WcetFaultInjected {
        /// The job.
        job: JobId,
        /// Which part overruns.
        target: FaultTarget,
        /// Demand multiplier applied.
        factor: f64,
    },
    /// The fault plan perturbed the job's optional-deadline timer.
    TimerFaultInjected {
        /// The job.
        job: JobId,
        /// The injected fault.
        fault: TimerFault,
    },
    /// A hardware thread entered a planned stall window.
    CpuStallStarted {
        /// The stalled hardware thread.
        hw: HwThreadId,
        /// Stall length.
        duration: Span,
    },
    /// The overload supervisor cut a real-time part at its budget.
    BudgetCut {
        /// The job.
        job: JobId,
        /// Which part was cut.
        target: FaultTarget,
    },
    /// The overload supervisor quarantined the job's task (its optional
    /// parts are skipped until the task proves healthy again).
    TaskQuarantined {
        /// The job whose overrun tripped the quarantine.
        job: JobId,
    },
    /// The overload supervisor switched the system to degraded mode
    /// (mandatory + wind-up only).
    DegradedModeEntered,
    /// The overload supervisor recovered the system to normal mode.
    DegradedModeExited,

    // ── trading pipeline ──────────────────────────────────────────────
    /// The imprecise trading pipeline entered a stage.
    PipelineStage {
        /// Trading cycle (job) number.
        cycle: u64,
        /// Which stage.
        stage: PipelineStage,
        /// The strategy slot, for `Analysis` stages.
        part: Option<PartId>,
    },

    // ── serving layer (multi-tenant sessions) ─────────────────────────
    /// A tenant's task-set submission passed the online admission test
    /// and its tasks were bound to hardware threads.
    TenantAdmitted {
        /// The admitted tenant.
        tenant: rtseed_model::TenantId,
        /// How many tasks the tenant's set contributes.
        tasks: u32,
    },
    /// A tenant's submission was turned away without running (admission
    /// failure, guard sanction, or queue backpressure — see `reason`).
    TenantRejected {
        /// The rejected tenant.
        tenant: rtseed_model::TenantId,
        /// Why the submission was refused.
        reason: RejectReason,
    },
    /// An admitted tenant left voluntarily; its tasks were removed from
    /// scheduling.
    TenantDeparted {
        /// The departing tenant.
        tenant: rtseed_model::TenantId,
    },
    /// The tenant guard cut a tenant's optional parts down to its QoS
    /// floor (ladder rung 1).
    TenantShed {
        /// The shed tenant.
        tenant: rtseed_model::TenantId,
    },
    /// The tenant guard forced a tenant mandatory-only (ladder rung 2).
    TenantQuarantined {
        /// The quarantined tenant.
        tenant: rtseed_model::TenantId,
    },
    /// The tenant guard evicted a persistent violator: its in-flight jobs
    /// were aborted and its tasks removed (ladder rung 3, terminal).
    TenantEvicted {
        /// The evicted tenant.
        tenant: rtseed_model::TenantId,
    },
    /// A sanctioned tenant ran enough clean jobs to step one rung back
    /// down the ladder.
    TenantRecovered {
        /// The recovering tenant.
        tenant: rtseed_model::TenantId,
    },
    /// A submission could not be admitted right now and was parked in the
    /// bounded deferred-admission queue for retry. The submitter has no
    /// [`TenantId`](rtseed_model::TenantId) yet, so the event carries its
    /// name.
    SubmissionDeferred {
        /// The submitting tenant's name.
        name: String,
    },
    /// A deferred submission was admitted on retry (capacity freed or
    /// backoff elapsed).
    DeferredAdmitted {
        /// The now-admitted tenant.
        tenant: rtseed_model::TenantId,
        /// How long the submission waited in the deferred queue.
        waited: Span,
    },
}

impl TraceEvent {
    /// Stable event name used by both exporters.
    pub const fn name(&self) -> &'static str {
        match self {
            TraceEvent::JobReleased { .. } => "job_released",
            TraceEvent::JobBound { .. } => "job_bound",
            TraceEvent::MandatoryStarted { .. } => "mandatory_started",
            TraceEvent::MandatoryCompleted { .. } => "mandatory_completed",
            TraceEvent::OptionalStarted { .. } => "optional_started",
            TraceEvent::OptionalEnded { .. } => "optional_ended",
            TraceEvent::WindupStarted { .. } => "windup_started",
            TraceEvent::WindupCompleted { .. } => "windup_completed",
            TraceEvent::Queue { .. } => "queue",
            TraceEvent::TimerArmed { .. } => "timer_armed",
            TraceEvent::OptionalDeadlineExpired { .. } => "timer_fired",
            TraceEvent::TimerCancelled { .. } => "timer_cancelled",
            TraceEvent::PolicyDecision { .. } => "policy_decision",
            TraceEvent::Migrated { .. } => "migrated",
            TraceEvent::WcetFaultInjected { .. } => "wcet_fault",
            TraceEvent::TimerFaultInjected { .. } => "timer_fault",
            TraceEvent::CpuStallStarted { .. } => "cpu_stall",
            TraceEvent::BudgetCut { .. } => "budget_cut",
            TraceEvent::TaskQuarantined { .. } => "task_quarantined",
            TraceEvent::DegradedModeEntered => "degraded_entered",
            TraceEvent::DegradedModeExited => "degraded_exited",
            TraceEvent::PipelineStage { .. } => "pipeline_stage",
            TraceEvent::TenantAdmitted { .. } => "tenant_admitted",
            TraceEvent::TenantRejected { .. } => "tenant_rejected",
            TraceEvent::TenantDeparted { .. } => "tenant_departed",
            TraceEvent::TenantShed { .. } => "tenant_shed",
            TraceEvent::TenantQuarantined { .. } => "tenant_quarantined",
            TraceEvent::TenantEvicted { .. } => "tenant_evicted",
            TraceEvent::TenantRecovered { .. } => "tenant_recovered",
            TraceEvent::SubmissionDeferred { .. } => "submission_deferred",
            TraceEvent::DeferredAdmitted { .. } => "deferred_admitted",
        }
    }

    /// The job this event concerns, if it concerns exactly one.
    pub const fn job(&self) -> Option<JobId> {
        match self {
            TraceEvent::JobReleased { job }
            | TraceEvent::JobBound { job, .. }
            | TraceEvent::MandatoryStarted { job, .. }
            | TraceEvent::MandatoryCompleted { job }
            | TraceEvent::OptionalStarted { job, .. }
            | TraceEvent::OptionalEnded { job, .. }
            | TraceEvent::WindupStarted { job }
            | TraceEvent::WindupCompleted { job, .. }
            | TraceEvent::Queue { job, .. }
            | TraceEvent::TimerArmed { job, .. }
            | TraceEvent::OptionalDeadlineExpired { job }
            | TraceEvent::TimerCancelled { job }
            | TraceEvent::Migrated { job, .. }
            | TraceEvent::WcetFaultInjected { job, .. }
            | TraceEvent::TimerFaultInjected { job, .. }
            | TraceEvent::BudgetCut { job, .. }
            | TraceEvent::TaskQuarantined { job } => Some(*job),
            TraceEvent::PolicyDecision { .. }
            | TraceEvent::CpuStallStarted { .. }
            | TraceEvent::DegradedModeEntered
            | TraceEvent::DegradedModeExited
            | TraceEvent::PipelineStage { .. }
            | TraceEvent::TenantAdmitted { .. }
            | TraceEvent::TenantRejected { .. }
            | TraceEvent::TenantDeparted { .. }
            | TraceEvent::TenantShed { .. }
            | TraceEvent::TenantQuarantined { .. }
            | TraceEvent::TenantEvicted { .. }
            | TraceEvent::TenantRecovered { .. }
            | TraceEvent::SubmissionDeferred { .. }
            | TraceEvent::DeferredAdmitted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::TaskId;

    #[test]
    fn queue_band_classification() {
        assert_eq!(QueueBand::of(Priority::HPQ), QueueBand::Hpq);
        assert_eq!(QueueBand::of(Priority::RTQ_MAX), QueueBand::Rtq);
        assert_eq!(QueueBand::of(Priority::RTQ_MIN), QueueBand::Rtq);
        assert_eq!(QueueBand::of(Priority::NRTQ_MAX), QueueBand::Nrtq);
        assert_eq!(QueueBand::of(Priority::NRTQ_MIN), QueueBand::Nrtq);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(QueueBand::Sq.name(), "SQ");
        assert_eq!(QueueOp::Dispatch.name(), "dispatch");
        assert_eq!(PipelineStage::Decide.name(), "decide");
        assert_eq!(TraceEvent::DegradedModeEntered.name(), "degraded_entered");
    }

    #[test]
    fn job_accessor() {
        let job = JobId {
            task: TaskId(2),
            seq: 7,
        };
        assert_eq!(TraceEvent::JobReleased { job }.job(), Some(job));
        assert_eq!(TraceEvent::DegradedModeEntered.job(), None);
        assert_eq!(
            TraceEvent::PolicyDecision {
                task: TaskId(0),
                policy: "one-by-one".into(),
                parts: 3,
                distinct_cores: 3,
            }
            .job(),
            None
        );
    }
}
