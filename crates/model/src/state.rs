//! Job- and part-level state machines for the parallel-extended imprecise
//! computation model (paper Fig. 1 and §III).

use core::fmt;

/// Terminal state of one parallel optional part (paper Fig. 1: each part is
/// completed, terminated or discarded *independently*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionalOutcome {
    /// Ran to completion before the optional deadline: full QoS.
    Completed,
    /// Was running at the optional deadline and was cut short: partial QoS.
    Terminated,
    /// Never started (mandatory part finished too late to leave any time):
    /// zero QoS.
    Discarded,
}

impl OptionalOutcome {
    /// `true` if the part contributed any QoS (completed or terminated).
    #[inline]
    pub const fn executed(self) -> bool {
        !matches!(self, OptionalOutcome::Discarded)
    }
}

impl fmt::Display for OptionalOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptionalOutcome::Completed => "completed",
            OptionalOutcome::Terminated => "terminated",
            OptionalOutcome::Discarded => "discarded",
        };
        f.write_str(s)
    }
}

/// Phase of one job of a parallel-extended imprecise task as it moves
/// through semi-fixed-priority scheduling (paper §III).
///
/// Legal transitions (enforced by [`JobPhase::can_transition_to`]):
///
/// ```text
/// Released ─► MandatoryRunning ─► OptionalRunning ─► WindupRunning ─► Done
///                    │                                    ▲
///                    └──────────── (late mandatory) ──────┘
/// ```
///
/// A job whose mandatory part completes *after* the optional deadline skips
/// `OptionalRunning` entirely (its optional parts are discarded, §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobPhase {
    /// Released, mandatory part not yet started.
    Released,
    /// Mandatory part executing (RTQ).
    MandatoryRunning,
    /// Parallel optional parts executing (NRTQ); mandatory complete.
    OptionalRunning,
    /// Wind-up part executing (RTQ); released at the optional deadline or at
    /// late mandatory completion.
    WindupRunning,
    /// Wind-up complete; job sleeps until its next release (SQ).
    Done,
}

impl JobPhase {
    /// Whether the transition `self → next` is legal in the
    /// semi-fixed-priority part state machine.
    pub const fn can_transition_to(self, next: JobPhase) -> bool {
        matches!(
            (self, next),
            (JobPhase::Released, JobPhase::MandatoryRunning)
                | (JobPhase::MandatoryRunning, JobPhase::OptionalRunning)
                | (JobPhase::MandatoryRunning, JobPhase::WindupRunning)
                | (JobPhase::OptionalRunning, JobPhase::WindupRunning)
                | (JobPhase::WindupRunning, JobPhase::Done)
        )
    }
}

impl fmt::Display for JobPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobPhase::Released => "released",
            JobPhase::MandatoryRunning => "mandatory-running",
            JobPhase::OptionalRunning => "optional-running",
            JobPhase::WindupRunning => "windup-running",
            JobPhase::Done => "done",
        };
        f.write_str(s)
    }
}

/// Lifecycle state of one tenant in the serving layer.
///
/// The transitions the serving layer makes:
///
/// ```text
/// Pending ─► Admitted ─► Departed
///    │            └────► Evicted
///    └────► Rejected
/// ```
///
/// `Rejected` and `Departed`/`Evicted` are terminal: a tenant that wants
/// back in submits again under a fresh id, so admission decisions stay an
/// append-only audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantState {
    /// Submitted, admission test not yet run.
    Pending,
    /// Passed the admission test; its tasks are bound to CPUs and running.
    Admitted,
    /// Failed the admission test; none of its tasks ever ran.
    Rejected,
    /// Left voluntarily (or its churn plan departed it); tasks removed.
    Departed,
    /// Removed by the serving layer (operator eviction) to free capacity.
    Evicted,
}

impl fmt::Display for TenantState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TenantState::Pending => "pending",
            TenantState::Admitted => "admitted",
            TenantState::Rejected => "rejected",
            TenantState::Departed => "departed",
            TenantState::Evicted => "evicted",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_outcome_executed() {
        assert!(OptionalOutcome::Completed.executed());
        assert!(OptionalOutcome::Terminated.executed());
        assert!(!OptionalOutcome::Discarded.executed());
    }

    #[test]
    fn happy_path_transitions() {
        use JobPhase::*;
        let path = [Released, MandatoryRunning, OptionalRunning, WindupRunning, Done];
        for w in path.windows(2) {
            assert!(w[0].can_transition_to(w[1]), "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn late_mandatory_skips_optional() {
        assert!(JobPhase::MandatoryRunning.can_transition_to(JobPhase::WindupRunning));
    }

    #[test]
    fn illegal_transitions_rejected() {
        use JobPhase::*;
        assert!(!Released.can_transition_to(OptionalRunning));
        assert!(!Released.can_transition_to(WindupRunning));
        assert!(!OptionalRunning.can_transition_to(MandatoryRunning));
        assert!(!WindupRunning.can_transition_to(OptionalRunning));
        assert!(!Done.can_transition_to(Released)); // next job is a new phase value
        assert!(!MandatoryRunning.can_transition_to(MandatoryRunning));
    }

    #[test]
    fn displays() {
        assert_eq!(OptionalOutcome::Discarded.to_string(), "discarded");
        assert_eq!(JobPhase::OptionalRunning.to_string(), "optional-running");
        assert_eq!(TenantState::Admitted.to_string(), "admitted");
    }
}
