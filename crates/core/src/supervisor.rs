//! The overload supervisor: runtime defence of the real-time guarantee
//! when execution demand exceeds what admission analysis assumed.
//!
//! Offline response-time analysis (`rtseed-analysis`) proves mandatory and
//! wind-up parts schedulable *for their declared WCETs*. A WCET fault — a
//! stuck market feed, a pathological input, an injected overrun from a
//! [`FaultPlan`](rtseed_sim::FaultPlan) — voids that proof. The supervisor
//! restores it with three escalating mechanisms:
//!
//! 1. **Budget cut**: every real-time part gets an execution budget equal
//!    to its declared WCET. A part that reaches its budget is cut —
//!    treated as complete — so its *scheduling* demand never exceeds what
//!    the analysis admitted, and lower-priority mandatory/wind-up parts
//!    keep their response-time bounds. In the imprecise model this is
//!    safe-by-construction: the wind-up part exists precisely to produce
//!    an output from whatever has been computed so far.
//! 2. **Task quarantine**: a task that overruns [`QUARANTINE_AFTER`] (3)
//!    consecutive jobs has its *optional* parts shed until it runs
//!    [`RECOVER_AFTER`] (4) clean jobs — localized load shedding for a
//!    single misbehaving task.
//! 3. **Degraded mode**: when overruns are system-wide ([`DEGRADE_AFTER`]
//!    (2) consecutive overrun events with no clean job in between), the
//!    whole system drops to mandatory + wind-up only. Recovery requires
//!    [`RECOVER_AFTER`] consecutive clean jobs — hysteresis, so a marginal
//!    system does not flap between modes.
//!
//! The thresholds and the budget are constants, not settings: each has
//! one value in use. The paper folds the runtime overheads into each
//! part's WCET (§II-A), so the declared WCET *is* the budget, and one
//! escalation policy serves every run. What a run chooses is only
//! whether the supervisor is armed (`RunConfig::supervisor`); the serving
//! layer's tenant guard arms it in the [`SupervisorMode::TenantScoped`]
//! mode, without the system-wide degraded mode.
//!
//! The supervisor is deterministic state over deterministic inputs, so a
//! supervised run under a fault plan replays exactly. Everything it
//! observes and does is tallied in a [`FaultReport`].

use rtseed_model::{Span, Time};

use crate::report::FaultReport;

/// Real-time part budget as a multiple of the declared WCET: 1.0 cuts
/// exactly at the analysed demand. It stays a factor applied through
/// [`Span::mul_f64`] so every budget keeps its value: that product goes
/// through `f64` seconds and truncates, so it drops 1 ns from some spans.
const BUDGET_FACTOR: f64 = 1.0;

/// Consecutive overruns of one task before its optional parts are
/// quarantined.
const QUARANTINE_AFTER: u32 = 3;

/// Consecutive overrun events (across all tasks, no clean job in between)
/// before the system enters degraded mode.
const DEGRADE_AFTER: u32 = 2;

/// Consecutive clean jobs required to leave quarantine / degraded mode
/// (the recovery hysteresis).
const RECOVER_AFTER: u32 = 4;

/// How a run's supervisor answers overruns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SupervisorMode {
    /// Disarmed: overruns are counted, nothing is cut or shed (executors
    /// behave exactly as without a supervisor).
    Off,
    /// Budget cuts, task quarantine and the system-wide degraded mode: a
    /// single-tenant executor's supervisor.
    Armed,
    /// Budget cuts and task quarantine, but no system-wide degraded mode:
    /// the serving layer's tenant guard answers one hostile tenant's
    /// overruns with tenant-scoped shedding instead of collective
    /// punishment.
    TenantScoped,
}

impl SupervisorMode {
    /// The mode a run's `supervisor` switch selects.
    pub(crate) fn of_run(armed: bool) -> SupervisorMode {
        if armed {
            SupervisorMode::Armed
        } else {
            SupervisorMode::Off
        }
    }
}

/// The supervisor's global operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OverloadMode {
    /// Full service: optional parts are scheduled normally.
    Normal,
    /// Load shedding: every task runs mandatory + wind-up only.
    Degraded,
}

/// What an overrun notification changed, so the executor can trace it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OverrunResponse {
    /// The overrunning task just entered quarantine.
    pub(crate) quarantined_task: bool,
    /// The system just entered degraded mode.
    pub(crate) entered_degraded: bool,
}

/// What a clean-job notification changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CleanResponse {
    /// The system just recovered from degraded mode to normal.
    pub(crate) recovered: bool,
}

/// Per-run overload supervisor state. Create one per executor run with
/// [`OverloadSupervisor::new`]; drive it with the `on_*`/`note_*` hooks;
/// harvest the [`FaultReport`] at the end.
#[derive(Debug, Clone)]
pub(crate) struct OverloadSupervisor {
    setting: SupervisorMode,
    mode: OverloadMode,
    overrun_streak: Vec<u32>,
    clean_streak: Vec<u32>,
    quarantined: Vec<bool>,
    global_overrun_streak: u32,
    global_clean_streak: u32,
    episode_start: Option<Time>,
    degraded_since: Option<Time>,
    report: FaultReport,
}

impl OverloadSupervisor {
    /// A supervisor for `tasks` tasks in mode `setting`.
    pub(crate) fn new(setting: SupervisorMode, tasks: usize) -> OverloadSupervisor {
        OverloadSupervisor {
            setting,
            mode: OverloadMode::Normal,
            overrun_streak: vec![0; tasks],
            clean_streak: vec![0; tasks],
            quarantined: vec![false; tasks],
            global_overrun_streak: 0,
            global_clean_streak: 0,
            episode_start: None,
            degraded_since: None,
            report: FaultReport::new(),
        }
    }

    /// Whether the supervisor is armed.
    pub(crate) fn enabled(&self) -> bool {
        self.setting != SupervisorMode::Off
    }

    /// Makes room for `tasks` more tasks, so a closed set entering through
    /// [`OverloadSupervisor::add_task`] allocates once per vector.
    pub(crate) fn reserve(&mut self, tasks: usize) {
        self.overrun_streak.reserve_exact(tasks);
        self.clean_streak.reserve_exact(tasks);
        self.quarantined.reserve_exact(tasks);
    }

    /// Grows the per-task state by one freshly-admitted task (clean
    /// streaks, not quarantined). Supports the serving layer's dynamic
    /// task arrival; global overload state is unaffected.
    pub(crate) fn add_task(&mut self) {
        self.overrun_streak.push(0);
        self.clean_streak.push(0);
        self.quarantined.push(false);
    }

    /// The execution budget for a real-time part with the given declared
    /// WCET.
    pub(crate) fn budget(&self, declared: Span) -> Span {
        declared.mul_f64(BUDGET_FACTOR)
    }

    /// Whether `task`'s next job must shed its optional parts (degraded
    /// mode or task quarantine). Always `false` when disarmed.
    pub(crate) fn shed_optional(&self, task: usize) -> bool {
        self.enabled() && (self.mode == OverloadMode::Degraded || self.quarantined[task])
    }

    /// A real-time part of `task` hit its budget with demand remaining.
    /// Returns which escalations fired so the caller can trace them.
    pub(crate) fn on_overrun(&mut self, task: usize, now: Time) -> OverrunResponse {
        let mut resp = OverrunResponse::default();
        self.report.overruns_detected += 1;
        self.clean_streak[task] = 0;
        self.overrun_streak[task] += 1;
        if !self.quarantined[task] && self.overrun_streak[task] >= QUARANTINE_AFTER {
            self.quarantined[task] = true;
            self.report.quarantines += 1;
            resp.quarantined_task = true;
        }
        self.global_clean_streak = 0;
        self.global_overrun_streak += 1;
        if self.episode_start.is_none() {
            self.episode_start = Some(now);
        }
        if self.setting == SupervisorMode::Armed
            && self.mode == OverloadMode::Normal
            && self.global_overrun_streak >= DEGRADE_AFTER
        {
            self.mode = OverloadMode::Degraded;
            self.degraded_since = Some(now);
            self.report.degraded_entries += 1;
            resp.entered_degraded = true;
        }
        resp
    }

    /// A job of `task` finished within budget and met its deadline.
    pub(crate) fn on_clean_job(&mut self, task: usize, now: Time) -> CleanResponse {
        let mut resp = CleanResponse::default();
        self.overrun_streak[task] = 0;
        self.clean_streak[task] += 1;
        if self.quarantined[task] && self.clean_streak[task] >= RECOVER_AFTER {
            self.quarantined[task] = false;
        }
        self.global_overrun_streak = 0;
        self.global_clean_streak += 1;
        match self.mode {
            OverloadMode::Degraded => {
                if self.global_clean_streak >= RECOVER_AFTER {
                    self.mode = OverloadMode::Normal;
                    if let Some(since) = self.degraded_since.take() {
                        self.report.degraded_dwell += now - since;
                    }
                    if let Some(start) = self.episode_start.take() {
                        self.report.recovery_latency += now - start;
                    }
                    resp.recovered = true;
                }
            }
            OverloadMode::Normal => {
                // An overrun blip that never degraded: episode over.
                self.episode_start = None;
            }
        }
        resp
    }

    /// The executor cut a part at its budget (always paired with
    /// [`on_overrun`](Self::on_overrun)).
    pub(crate) fn note_budget_cut(&mut self) {
        self.report.budget_cuts += 1;
    }

    /// A job ran with its optional parts shed.
    pub(crate) fn note_degraded_job(&mut self) {
        self.report.jobs_degraded += 1;
    }

    /// The fault plan injected a WCET overrun.
    pub(crate) fn note_wcet_fault(&mut self) {
        self.report.wcet_faults += 1;
    }

    /// The fault plan injected a timer fault.
    pub(crate) fn note_timer_fault(&mut self) {
        self.report.timer_faults += 1;
    }

    /// The fault plan opened a CPU stall window.
    pub(crate) fn note_cpu_stall(&mut self) {
        self.report.cpu_stalls += 1;
    }

    /// Closes the books at end of run (accrues dwell for a still-degraded
    /// system) and returns the report.
    pub(crate) fn finish(&mut self, now: Time) -> FaultReport {
        if let Some(since) = self.degraded_since.take() {
            self.report.degraded_dwell += now - since;
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_nanos(ms * 1_000_000)
    }

    fn sup(tasks: usize) -> OverloadSupervisor {
        OverloadSupervisor::new(SupervisorMode::Armed, tasks)
    }

    #[test]
    fn disabled_supervisor_never_sheds() {
        let mut s = OverloadSupervisor::new(SupervisorMode::Off, 1);
        for i in 0..10 {
            s.on_overrun(0, t(i));
        }
        assert!(!s.shed_optional(0));
        assert!(!s.enabled());
        // It still *observes* (counters run even when response is off).
        assert_eq!(s.report.overruns_detected, 10);
    }

    #[test]
    fn quarantine_after_consecutive_overruns_and_release() {
        let mut s = sup(2);
        // Two overruns, then a clean job: streak resets, no quarantine.
        s.on_overrun(0, t(0));
        s.on_overrun(0, t(1));
        s.on_clean_job(0, t(2));
        assert!(!s.quarantined[0]);
        // Three consecutive: quarantined.
        let r2 = s.on_overrun(0, t(3));
        let r3 = s.on_overrun(0, t(4));
        let r4 = s.on_overrun(0, t(5));
        assert!(!r2.quarantined_task && !r3.quarantined_task);
        assert!(r4.quarantined_task);
        assert!(s.quarantined[0] && !s.quarantined[1]);
        assert!(s.shed_optional(0));
        assert_eq!(s.report.quarantines, 1);
        // Recovery needs `RECOVER_AFTER` clean jobs.
        for i in 0..4 {
            s.on_clean_job(0, t(10 + i));
        }
        assert!(!s.quarantined[0]);
    }

    #[test]
    fn degraded_mode_with_hysteresis_and_accounting() {
        let mut s = sup(2);
        assert_eq!(s.mode, OverloadMode::Normal);
        s.on_overrun(0, t(100));
        let r = s.on_overrun(1, t(150));
        assert!(r.entered_degraded);
        assert_eq!(s.mode, OverloadMode::Degraded);
        assert!(s.shed_optional(0) && s.shed_optional(1));
        // Three clean jobs: still degraded (hysteresis).
        for i in 0..3 {
            assert!(!s.on_clean_job(0, t(200 + i)).recovered);
        }
        assert_eq!(s.mode, OverloadMode::Degraded);
        // Fourth: recovered; dwell 150→500, episode 100→500.
        let r = s.on_clean_job(1, t(500));
        assert!(r.recovered);
        assert_eq!(s.mode, OverloadMode::Normal);
        let rep = s.report;
        assert_eq!(rep.degraded_entries, 1);
        assert_eq!(rep.degraded_dwell, t(500) - t(150));
        assert_eq!(rep.recovery_latency, t(500) - t(100));
    }

    #[test]
    fn overrun_blip_resets_episode_without_degrading() {
        let mut s = sup(1);
        s.on_overrun(0, t(0));
        s.on_clean_job(0, t(10));
        s.on_overrun(0, t(20));
        assert_eq!(s.mode, OverloadMode::Normal);
        assert_eq!(s.report.degraded_entries, 0);
    }

    #[test]
    fn tenant_scoped_supervisor_never_degrades_globally() {
        let mut s = OverloadSupervisor::new(SupervisorMode::TenantScoped, 2);
        for i in 0..10 {
            s.on_overrun(0, t(i));
        }
        // The offender is quarantined; the system never collectively
        // degrades, so the innocent neighbour keeps its optional parts.
        assert_eq!(s.mode, OverloadMode::Normal);
        assert!(s.shed_optional(0));
        assert!(!s.shed_optional(1));
        assert_eq!(s.report.degraded_entries, 0);
    }

    #[test]
    fn finish_accrues_dwell_when_still_degraded() {
        let mut s = sup(1);
        s.on_overrun(0, t(0));
        s.on_overrun(0, t(10));
        assert_eq!(s.mode, OverloadMode::Degraded);
        let rep = s.finish(t(100));
        assert_eq!(rep.degraded_dwell, t(100) - t(10));
        // Never recovered, so no recovery latency was booked.
        assert_eq!(rep.recovery_latency, Span::ZERO);
    }
}
