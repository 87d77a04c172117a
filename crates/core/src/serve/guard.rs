//! Tenant fault isolation for the serving layer.
//!
//! The guard watches per-tenant fault signals attributed by the engine
//! (budget overruns, lost OD timers, deadline misses) and walks each
//! offender down a three-rung **degradation ladder**:
//!
//! 1. **Shed** at 3 strikes — the tenant's optional parts are cut down
//!    to a QoS floor of half of each task's parts (floor rounding);
//!    mandatory work is untouched.
//! 2. **Quarantine** at 6 strikes — the tenant is forced mandatory-only
//!    and new submissions under its name are deferred instead of
//!    admitted.
//! 3. **Evict** at 10 strikes — the tenant is departed with in-flight
//!    abort; the freed capacity immediately triggers a re-evaluation of
//!    deferred submissions.
//!
//! Escalation is driven by a cumulative strike count with hysteresis:
//! every fault signal adds a strike, and a run of 4 clean jobs clears the
//! strikes and steps the tenant back down one rung. Eviction is terminal
//! for a tenant name; later submissions under the same name are rejected
//! with [`RejectReason::Evicted`].
//!
//! A deferred submission waits in a queue of at most 64 entries and is
//! retried after 10 ms, the backoff doubling on each failed retry up to
//! 160 ms, until it is admitted or 1 s has passed. These numbers are
//! constants, not settings: one value of each is in use, and what a
//! session chooses is only whether to arm the guard
//! (`with_guard(`[`GuardConfig::armed`]`())`).
//!
//! The ladder is per *name*, not per tenant: the session resolves a
//! tenant name to a dense name id once per call (its name index points
//! at the most recent tenant of each name) and the guard keeps one
//! ladder per id. A re-submission under a fresh `TenantId` inherits the
//! name's strikes, and two admitted tenants of one name share a ladder.
//!
//! The module also defines the typed failure vocabulary of the submission
//! path ([`RejectReason`], [`ServeError`], [`Submission`]) so callers can
//! distinguish capacity rejections from policy rejections and from
//! backpressure.

use core::fmt;

use rtseed_model::Span;

use crate::engine::TenantSignal;

/// Cumulative strikes at which a tenant is shed (rung 1).
const SHED_AT: u64 = 3;
/// Cumulative strikes at which a tenant is quarantined (rung 2): 3 more
/// than shedding.
const QUARANTINE_AT: u64 = SHED_AT + 3;
/// Cumulative strikes at which a tenant is evicted (rung 3): 4 more than
/// quarantine.
const EVICT_AT: u64 = QUARANTINE_AT + 4;
/// Consecutive clean jobs that clear the strike count and step the tenant
/// back down one rung.
const RECOVER_AFTER: u32 = 4;
/// Fraction of each task's optional parts (in parts-per-million) that a
/// shed tenant keeps. Applied with floor rounding, so small part counts
/// degrade toward mandatory-only.
pub(super) const SHED_KEEP_PPM: u32 = 500_000;
/// Maximum number of deferred submissions queued at once; beyond this the
/// path backpressures with [`RejectReason::QueueFull`].
pub(super) const QUEUE_DEPTH: usize = 64;
/// Initial deferred-retry backoff; doubles on every failed retry.
const RETRY_BACKOFF: Span = Span::from_millis(10);
/// Failed retries after which the backoff stops doubling: 10 ms doubled
/// 4 times caps it at 160 ms.
const RETRY_BACKOFF_DOUBLINGS: u32 = 4;
/// How long a deferred submission may wait in total before it is rejected
/// with [`RejectReason::RetryDeadline`].
pub(super) const RETRY_DEADLINE: Span = Span::from_millis(1_000);

/// The backoff before a deferred submission's retry after `attempts`
/// failed ones: [`RETRY_BACKOFF`] doubled per attempt, for at most
/// [`RETRY_BACKOFF_DOUBLINGS`] attempts.
pub(super) fn deferred_backoff(attempts: u32) -> Span {
    RETRY_BACKOFF * (1u64 << attempts.min(RETRY_BACKOFF_DOUBLINGS))
}

/// The armed tenant guard: the degradation ladder and the deferred
/// admission queue, passed to [`SessionManager::with_guard`].
///
/// It holds nothing. A session without a guard never calls `with_guard`;
/// the ladder's thresholds and the queue's depth and timings are
/// constants (see the [module docs](crate::serve::guard)).
///
/// [`SessionManager::with_guard`]: crate::serve::SessionManager::with_guard
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig;

impl GuardConfig {
    /// The guard, armed.
    #[must_use]
    pub fn armed() -> GuardConfig {
        GuardConfig
    }
}

/// Where a tenant currently sits on the degradation ladder.
///
/// Rungs are ordered by severity: `Normal < Shed < Quarantined <
/// Evicted`. The guard only escalates along this order (never skips a
/// trace event) and recovery steps down one rung at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LadderRung {
    /// Full service: mandatory and optional parts as admitted.
    #[default]
    Normal,
    /// Optional parts cut to the configured QoS floor.
    Shed,
    /// Mandatory-only service; new submissions are deferred.
    Quarantined,
    /// Departed by the guard; new submissions are rejected.
    Evicted,
}

impl LadderRung {
    /// Stable lower-case label used in traces and bench JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LadderRung::Normal => "normal",
            LadderRung::Shed => "shed",
            LadderRung::Quarantined => "quarantined",
            LadderRung::Evicted => "evicted",
        }
    }
}

impl fmt::Display for LadderRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a submission was not admitted.
///
/// Every rejection on the serving path carries one of these, is counted
/// per-reason in `ServeCounters`, and is attached to the
/// `TenantRejected` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Offline P-RMWP admission control could not schedule the set; the
    /// index is the first task that failed response-time analysis.
    Unschedulable {
        /// Index into the submitted task slice of the first unschedulable
        /// task.
        index: usize,
    },
    /// The submission contained no tasks.
    EmptySubmission,
    /// The tenant is quarantined by the guard; the submission was not
    /// tried against admission control.
    Quarantined,
    /// The tenant was evicted by the guard; its name is barred.
    Evicted,
    /// The deferred-admission queue is full (backpressure).
    QueueFull,
    /// A deferred submission exhausted its retry deadline without
    /// capacity becoming available.
    RetryDeadline,
}

impl RejectReason {
    /// Stable lower-case label used in traces and bench JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Unschedulable { .. } => "unschedulable",
            RejectReason::EmptySubmission => "empty",
            RejectReason::Quarantined => "quarantined",
            RejectReason::Evicted => "evicted",
            RejectReason::QueueFull => "queue_full",
            RejectReason::RetryDeadline => "retry_deadline",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Unschedulable { index } => {
                write!(f, "task {index} fails response-time analysis")
            }
            RejectReason::EmptySubmission => f.write_str("submission contains no tasks"),
            RejectReason::Quarantined => f.write_str("tenant is quarantined"),
            RejectReason::Evicted => f.write_str("tenant was evicted"),
            RejectReason::QueueFull => f.write_str("deferred-admission queue is full"),
            RejectReason::RetryDeadline => f.write_str("deferred retry deadline expired"),
        }
    }
}

impl From<rtseed_analysis::RejectReason> for RejectReason {
    fn from(r: rtseed_analysis::RejectReason) -> RejectReason {
        use rtseed_analysis::RejectReason as Analysis;
        match r {
            Analysis::Unschedulable { index } => RejectReason::Unschedulable { index },
            Analysis::EmptySubmission => RejectReason::EmptySubmission,
            // `UnknownKey` (and future variants) only arise from engine
            // operations the submission path never performs; treat them
            // as failed admissions.
            _ => RejectReason::Unschedulable { index: 0 },
        }
    }
}

/// Typed error for the synchronous serving operations
/// (`SessionManager::submit` / `try_depart` / `with_placement_policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The submission was rejected; see the reason.
    Rejected(RejectReason),
    /// No admitted tenant with the given name exists.
    UnknownTenant,
    /// The placement policy was changed while tasks were resident.
    PlacementAfterAdmission,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(reason) => write!(f, "submission rejected: {reason}"),
            ServeError::UnknownTenant => f.write_str("no admitted tenant with that name"),
            ServeError::PlacementAfterAdmission => {
                f.write_str("set the placement policy before the first admission")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Outcome of a storm-safe submission (`SessionManager::submit_or_defer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// Admitted immediately; tasks are live under this tenant id.
    Admitted(rtseed_model::TenantId),
    /// Parked on the deferred queue; it will be retried with backoff and
    /// whenever capacity is freed, until its retry deadline.
    Deferred,
    /// Rejected outright; see the reason.
    Rejected(RejectReason),
}

/// Per-tenant guard statistics reported in `TenantOutcome`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Final ladder rung at the end of the run.
    pub rung: LadderRung,
    /// Cumulative fault strikes still on record (cleared by recovery).
    pub strikes: u64,
    /// Number of ladder transitions (escalations and recoveries).
    pub transitions: u32,
}

/// A single ladder move returned by [`ServeGuard::observe`] for the
/// serving layer to enact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LadderTransition {
    /// Cut the tenant's optionals to the QoS floor.
    Shed,
    /// Force the tenant mandatory-only.
    Quarantine,
    /// Depart the tenant with in-flight abort.
    Evict,
    /// Step back down to the given rung after a clean streak.
    Recover(LadderRung),
}

#[derive(Debug, Clone, Copy, Default)]
struct GuardState {
    rung: LadderRung,
    strikes: u64,
    clean: u32,
    transitions: u32,
}

/// The degradation-ladder state machine: one ladder per tenant name.
///
/// The guard never sees a name. The session resolves each name to a
/// dense *name id* once per call and hands the guard the id, so a name's
/// strikes survive re-submission under a fresh `TenantId`, two admitted
/// tenants of one name share one ladder, and an evicted name stays
/// barred. An id the guard was never signalled about reads
/// [`LadderRung::Normal`] with all-zero [`GuardStats`].
#[derive(Debug, Clone)]
pub(crate) struct ServeGuard {
    enabled: bool,
    /// Indexed by name id. An id past the end was never signalled; the
    /// vector grows to a name's id on its first signal.
    states: Vec<GuardState>,
}

impl ServeGuard {
    /// A guard that observes faults when `enabled`.
    #[must_use]
    pub(crate) fn new(enabled: bool) -> ServeGuard {
        ServeGuard { enabled, states: Vec::new() }
    }

    /// Whether the guard is observing faults at all.
    #[must_use]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current ladder rung for name id `name` (Normal if never seen).
    #[must_use]
    pub(crate) fn rung(&self, name: u32) -> LadderRung {
        self.state(name).rung
    }

    /// Guard statistics for name id `name` (all-zero if never seen).
    #[must_use]
    pub(crate) fn stats(&self, name: u32) -> GuardStats {
        let s = self.state(name);
        GuardStats { rung: s.rung, strikes: s.strikes, transitions: s.transitions }
    }

    /// Feed one attributed fault signal for name id `name` into the
    /// ladder.
    ///
    /// Returns the transition the serving layer must enact, if the signal
    /// crossed a threshold. Signals for evicted names are ignored.
    pub(crate) fn observe(&mut self, name: u32, signal: TenantSignal) -> Option<LadderTransition> {
        if !self.enabled {
            return None;
        }
        let at = name as usize;
        if at >= self.states.len() {
            self.states.resize(at + 1, GuardState::default());
        }
        let state = &mut self.states[at];
        if state.rung == LadderRung::Evicted {
            return None;
        }
        match signal {
            TenantSignal::CleanJob => {
                state.clean += 1;
                if state.rung != LadderRung::Normal && state.clean >= RECOVER_AFTER {
                    state.clean = 0;
                    state.strikes = 0;
                    let to = match state.rung {
                        LadderRung::Quarantined => LadderRung::Shed,
                        _ => LadderRung::Normal,
                    };
                    state.rung = to;
                    state.transitions += 1;
                    return Some(LadderTransition::Recover(to));
                }
                None
            }
            TenantSignal::Overrun | TenantSignal::DeadlineMiss | TenantSignal::TimerLost => {
                state.clean = 0;
                state.strikes += 1;
                let next = if state.strikes >= EVICT_AT {
                    LadderRung::Evicted
                } else if state.strikes >= QUARANTINE_AT {
                    LadderRung::Quarantined
                } else if state.strikes >= SHED_AT {
                    LadderRung::Shed
                } else {
                    LadderRung::Normal
                };
                if next > state.rung {
                    state.rung = next;
                    state.transitions += 1;
                    return Some(match next {
                        LadderRung::Shed => LadderTransition::Shed,
                        LadderRung::Quarantined => LadderTransition::Quarantine,
                        _ => LadderTransition::Evict,
                    });
                }
                None
            }
        }
    }

    fn state(&self, name: u32) -> GuardState {
        self.states.get(name as usize).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name id well past every other one here: the guard grows to it
    /// on its first signal.
    const HOSTILE: u32 = 7;

    fn armed() -> ServeGuard {
        ServeGuard::new(true)
    }

    #[test]
    fn ladder_escalates_in_order_and_never_skips_a_rung_event() {
        let mut g = armed();
        let mut transitions = Vec::new();
        for _ in 0..10 {
            if let Some(t) = g.observe(HOSTILE, TenantSignal::Overrun) {
                transitions.push(t);
            }
        }
        assert_eq!(
            transitions,
            vec![LadderTransition::Shed, LadderTransition::Quarantine, LadderTransition::Evict]
        );
        assert_eq!(g.rung(HOSTILE), LadderRung::Evicted);
        // Evicted is terminal: further signals are ignored.
        assert_eq!(g.observe(HOSTILE, TenantSignal::Overrun), None);
        assert_eq!(g.observe(HOSTILE, TenantSignal::CleanJob), None);
        assert_eq!(g.stats(HOSTILE).transitions, 3);
    }

    #[test]
    fn each_name_id_has_its_own_ladder_and_an_unseen_one_reads_normal() {
        let mut g = armed();
        for _ in 0..6 {
            g.observe(HOSTILE, TenantSignal::Overrun);
        }
        g.observe(2, TenantSignal::Overrun);
        assert_eq!(g.rung(HOSTILE), LadderRung::Quarantined);
        assert_eq!(
            g.stats(2),
            GuardStats {
                rung: LadderRung::Normal,
                strikes: 1,
                transitions: 0
            }
        );
        // Below the highest id signalled so far, and past it.
        for unseen in [0, 1, 3, HOSTILE + 1, u32::MAX] {
            assert_eq!(g.rung(unseen), LadderRung::Normal, "{unseen}");
            assert_eq!(g.stats(unseen), GuardStats::default(), "{unseen}");
        }
    }

    #[test]
    fn clean_streak_steps_down_one_rung_and_clears_strikes() {
        let mut g = armed();
        for _ in 0..4 {
            g.observe(0, TenantSignal::DeadlineMiss);
        }
        assert_eq!(g.rung(0), LadderRung::Shed);
        for _ in 0..3 {
            assert_eq!(g.observe(0, TenantSignal::CleanJob), None);
        }
        assert_eq!(
            g.observe(0, TenantSignal::CleanJob),
            Some(LadderTransition::Recover(LadderRung::Normal))
        );
        assert_eq!(g.rung(0), LadderRung::Normal);
        assert_eq!(g.stats(0).strikes, 0);
    }

    #[test]
    fn recovery_from_quarantine_lands_on_shed_not_normal() {
        let mut g = armed();
        for _ in 0..6 {
            g.observe(0, TenantSignal::TimerLost);
        }
        assert_eq!(g.rung(0), LadderRung::Quarantined);
        for _ in 0..4 {
            g.observe(0, TenantSignal::CleanJob);
        }
        assert_eq!(g.rung(0), LadderRung::Shed);
    }

    #[test]
    fn a_fault_resets_the_clean_streak() {
        let mut g = armed();
        for _ in 0..3 {
            g.observe(0, TenantSignal::Overrun);
        }
        assert_eq!(g.rung(0), LadderRung::Shed);
        for _ in 0..3 {
            g.observe(0, TenantSignal::CleanJob);
        }
        // One more fault restarts the streak; 3 cleans are not enough again.
        g.observe(0, TenantSignal::Overrun);
        for _ in 0..3 {
            assert_eq!(g.observe(0, TenantSignal::CleanJob), None);
        }
        assert_eq!(g.rung(0), LadderRung::Shed);
    }

    #[test]
    fn deferred_backoff_doubles_from_10_ms_to_a_160_ms_cap() {
        let ms = Span::from_millis;
        let got: Vec<Span> = (0..7).map(deferred_backoff).collect();
        assert_eq!(got, [ms(10), ms(20), ms(40), ms(80), ms(160), ms(160), ms(160)]);
        assert_eq!(deferred_backoff(u32::MAX), ms(160));
    }

    #[test]
    fn disabled_guard_observes_nothing() {
        let mut g = ServeGuard::new(false);
        for _ in 0..100 {
            assert_eq!(g.observe(0, TenantSignal::Overrun), None);
        }
        assert_eq!(g.rung(0), LadderRung::Normal);
        assert_eq!(g.stats(0), GuardStats::default());
    }

    #[test]
    fn reject_reason_labels_are_stable() {
        assert_eq!(RejectReason::Unschedulable { index: 2 }.label(), "unschedulable");
        assert_eq!(RejectReason::QueueFull.label(), "queue_full");
        assert_eq!(
            RejectReason::from(rtseed_analysis::RejectReason::EmptySubmission),
            RejectReason::EmptySubmission
        );
    }
}
