//! The overload supervisor: runtime defence of the real-time guarantee
//! when execution demand exceeds what admission analysis assumed.
//!
//! Offline response-time analysis (`rtseed-analysis`) proves mandatory and
//! wind-up parts schedulable *for their declared WCETs*. A WCET fault — a
//! stuck market feed, a pathological input, an injected overrun from a
//! [`FaultPlan`](rtseed_sim::FaultPlan) — voids that proof. The supervisor
//! restores it with three escalating mechanisms:
//!
//! 1. **Budget cut**: every real-time part gets an execution budget
//!    (declared WCET × [`budget_factor`](SupervisorConfig::budget_factor)).
//!    A part that reaches its budget is cut — treated as complete — so its
//!    *scheduling* demand never exceeds what the analysis admitted, and
//!    lower-priority mandatory/wind-up parts keep their response-time
//!    bounds. In the imprecise model this is safe-by-construction: the
//!    wind-up part exists precisely to produce an output from whatever has
//!    been computed so far.
//! 2. **Task quarantine**: a task that overruns
//!    [`quarantine_after`](SupervisorConfig::quarantine_after) consecutive
//!    jobs has its *optional* parts shed until it runs
//!    [`recover_after`](SupervisorConfig::recover_after) clean jobs —
//!    localized load shedding for a single misbehaving task.
//! 3. **Degraded mode**: when overruns are system-wide
//!    ([`degrade_after`](SupervisorConfig::degrade_after) consecutive
//!    overrun events with no clean job in between), the whole system drops
//!    to mandatory + wind-up only. Recovery requires
//!    [`recover_after`](SupervisorConfig::recover_after) consecutive clean
//!    jobs — hysteresis, so a marginal system does not flap between modes.
//!
//! The supervisor is deterministic state over deterministic inputs, so a
//! supervised run under a fault plan replays exactly. Everything it
//! observes and does is tallied in a [`FaultReport`].

use rtseed_model::{Span, Time};

use crate::report::FaultReport;

/// Overload supervisor tuning. `Default` is **disabled** (executors behave
/// exactly as without a supervisor); flip [`enabled`](Self::enabled) on to
/// arm it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Whether the supervisor is armed at all.
    pub enabled: bool,
    /// Real-time part budget as a multiple of the declared WCET. 1.0 cuts
    /// exactly at the analysed demand; values > 1.0 tolerate small jitter
    /// at the cost of (bounded) extra interference on lower priorities.
    pub budget_factor: f64,
    /// Consecutive overruns of one task before its optional parts are
    /// quarantined.
    pub quarantine_after: u32,
    /// Consecutive overrun events (across all tasks, no clean job in
    /// between) before the system enters degraded mode.
    pub degrade_after: u32,
    /// Consecutive clean jobs required to leave quarantine / degraded
    /// mode (the recovery hysteresis).
    pub recover_after: u32,
    /// Whether system-wide overrun streaks may enter [`Degraded`]
    /// mode (shedding *every* task's optional parts). `true` for a
    /// single-tenant executor; the serving layer's tenant guard sets it
    /// `false` so one hostile tenant's overruns are answered with
    /// tenant-scoped shedding instead of collective punishment.
    ///
    /// [`Degraded`]: OverloadMode::Degraded
    pub global_degrade: bool,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            enabled: false,
            budget_factor: 1.0,
            quarantine_after: 3,
            degrade_after: 2,
            recover_after: 4,
            global_degrade: true,
        }
    }
}

impl SupervisorConfig {
    /// An armed supervisor with the default thresholds.
    pub fn armed() -> SupervisorConfig {
        SupervisorConfig {
            enabled: true,
            ..SupervisorConfig::default()
        }
    }

    /// An armed supervisor for a multi-tenant host: budget cuts and
    /// per-task quarantine stay on, but the system-wide degraded mode is
    /// off — fault response is the tenant guard's job, scoped to the
    /// offender.
    pub fn tenant_scoped() -> SupervisorConfig {
        SupervisorConfig {
            enabled: true,
            global_degrade: false,
            ..SupervisorConfig::default()
        }
    }
}

/// The supervisor's global operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadMode {
    /// Full service: optional parts are scheduled normally.
    Normal,
    /// Load shedding: every task runs mandatory + wind-up only.
    Degraded,
}

/// What an overrun notification changed, so the executor can trace it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverrunResponse {
    /// The overrunning task just entered quarantine.
    pub quarantined_task: bool,
    /// The system just entered degraded mode.
    pub entered_degraded: bool,
}

/// What a clean-job notification changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanResponse {
    /// The system just recovered from degraded mode to normal.
    pub recovered: bool,
}

/// Per-run overload supervisor state. Create one per executor run with
/// [`OverloadSupervisor::new`]; drive it with the `on_*`/`note_*` hooks;
/// harvest the [`FaultReport`] at the end.
#[derive(Debug, Clone)]
pub struct OverloadSupervisor {
    cfg: SupervisorConfig,
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
    /// A supervisor for `tasks` tasks under `cfg`.
    pub fn new(cfg: SupervisorConfig, tasks: usize) -> OverloadSupervisor {
        OverloadSupervisor {
            cfg,
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
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Current operating mode.
    pub fn mode(&self) -> OverloadMode {
        self.mode
    }

    /// Whether `task` is currently quarantined.
    pub fn quarantined(&self, task: usize) -> bool {
        self.quarantined[task]
    }

    /// Makes room for `tasks` more tasks, so a closed set entering through
    /// [`OverloadSupervisor::add_task`] allocates once per vector.
    pub fn reserve(&mut self, tasks: usize) {
        self.overrun_streak.reserve_exact(tasks);
        self.clean_streak.reserve_exact(tasks);
        self.quarantined.reserve_exact(tasks);
    }

    /// Grows the per-task state by one freshly-admitted task (clean
    /// streaks, not quarantined). Supports the serving layer's dynamic
    /// task arrival; global overload state is unaffected.
    pub fn add_task(&mut self) {
        self.overrun_streak.push(0);
        self.clean_streak.push(0);
        self.quarantined.push(false);
    }

    /// The execution budget for a real-time part with the given declared
    /// WCET.
    pub fn budget(&self, declared: Span) -> Span {
        declared.mul_f64(self.cfg.budget_factor)
    }

    /// Whether `task`'s next job must shed its optional parts (degraded
    /// mode or task quarantine). Always `false` when disarmed.
    pub fn shed_optional(&self, task: usize) -> bool {
        self.cfg.enabled && (self.mode == OverloadMode::Degraded || self.quarantined[task])
    }

    /// A real-time part of `task` hit its budget with demand remaining.
    /// Returns which escalations fired so the caller can trace them.
    pub fn on_overrun(&mut self, task: usize, now: Time) -> OverrunResponse {
        let mut resp = OverrunResponse::default();
        self.report.overruns_detected += 1;
        self.clean_streak[task] = 0;
        self.overrun_streak[task] += 1;
        if !self.quarantined[task] && self.overrun_streak[task] >= self.cfg.quarantine_after {
            self.quarantined[task] = true;
            self.report.quarantines += 1;
            resp.quarantined_task = true;
        }
        self.global_clean_streak = 0;
        self.global_overrun_streak += 1;
        if self.episode_start.is_none() {
            self.episode_start = Some(now);
        }
        if self.cfg.global_degrade
            && self.mode == OverloadMode::Normal
            && self.global_overrun_streak >= self.cfg.degrade_after
        {
            self.mode = OverloadMode::Degraded;
            self.degraded_since = Some(now);
            self.report.degraded_entries += 1;
            resp.entered_degraded = true;
        }
        resp
    }

    /// A job of `task` finished within budget and met its deadline.
    pub fn on_clean_job(&mut self, task: usize, now: Time) -> CleanResponse {
        let mut resp = CleanResponse::default();
        self.overrun_streak[task] = 0;
        self.clean_streak[task] += 1;
        if self.quarantined[task] && self.clean_streak[task] >= self.cfg.recover_after {
            self.quarantined[task] = false;
        }
        self.global_overrun_streak = 0;
        self.global_clean_streak += 1;
        match self.mode {
            OverloadMode::Degraded => {
                if self.global_clean_streak >= self.cfg.recover_after {
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
    pub fn note_budget_cut(&mut self) {
        self.report.budget_cuts += 1;
    }

    /// A job ran with its optional parts shed.
    pub fn note_degraded_job(&mut self) {
        self.report.jobs_degraded += 1;
    }

    /// The fault plan injected a WCET overrun.
    pub fn note_wcet_fault(&mut self) {
        self.report.wcet_faults += 1;
    }

    /// The fault plan injected a timer fault.
    pub fn note_timer_fault(&mut self) {
        self.report.timer_faults += 1;
    }

    /// The fault plan opened a CPU stall window.
    pub fn note_cpu_stall(&mut self) {
        self.report.cpu_stalls += 1;
    }

    /// Closes the books at end of run (accrues dwell for a still-degraded
    /// system) and returns the report.
    pub fn finish(&mut self, now: Time) -> FaultReport {
        if let Some(since) = self.degraded_since.take() {
            self.report.degraded_dwell += now - since;
        }
        self.report
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &FaultReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_nanos(ms * 1_000_000)
    }

    fn sup(tasks: usize) -> OverloadSupervisor {
        OverloadSupervisor::new(SupervisorConfig::armed(), tasks)
    }

    #[test]
    fn disabled_supervisor_never_sheds() {
        let mut s = OverloadSupervisor::new(SupervisorConfig::default(), 1);
        for i in 0..10 {
            s.on_overrun(0, t(i));
        }
        assert!(!s.shed_optional(0));
        assert!(!s.enabled());
        // It still *observes* (counters run even when response is off).
        assert_eq!(s.report().overruns_detected, 10);
    }

    #[test]
    fn budget_scales_declared_wcet() {
        let mut cfg = SupervisorConfig::armed();
        cfg.budget_factor = 1.5;
        let s = OverloadSupervisor::new(cfg, 1);
        assert_eq!(s.budget(Span::from_millis(100)), Span::from_millis(150));
    }

    #[test]
    fn quarantine_after_consecutive_overruns_and_release() {
        let mut s = sup(2);
        // Two overruns, then a clean job: streak resets, no quarantine.
        s.on_overrun(0, t(0));
        s.on_overrun(0, t(1));
        s.on_clean_job(0, t(2));
        assert!(!s.quarantined(0));
        // Three consecutive: quarantined.
        let r2 = s.on_overrun(0, t(3));
        let r3 = s.on_overrun(0, t(4));
        let r4 = s.on_overrun(0, t(5));
        assert!(!r2.quarantined_task && !r3.quarantined_task);
        assert!(r4.quarantined_task);
        assert!(s.quarantined(0) && !s.quarantined(1));
        assert!(s.shed_optional(0));
        assert_eq!(s.report().quarantines, 1);
        // Recovery needs `recover_after` clean jobs.
        for i in 0..4 {
            s.on_clean_job(0, t(10 + i));
        }
        assert!(!s.quarantined(0));
    }

    #[test]
    fn degraded_mode_with_hysteresis_and_accounting() {
        let mut s = sup(2);
        assert_eq!(s.mode(), OverloadMode::Normal);
        s.on_overrun(0, t(100));
        let r = s.on_overrun(1, t(150));
        assert!(r.entered_degraded);
        assert_eq!(s.mode(), OverloadMode::Degraded);
        assert!(s.shed_optional(0) && s.shed_optional(1));
        // Three clean jobs: still degraded (hysteresis).
        for i in 0..3 {
            assert!(!s.on_clean_job(0, t(200 + i)).recovered);
        }
        assert_eq!(s.mode(), OverloadMode::Degraded);
        // Fourth: recovered; dwell 150→500, episode 100→500.
        let r = s.on_clean_job(1, t(500));
        assert!(r.recovered);
        assert_eq!(s.mode(), OverloadMode::Normal);
        let rep = s.report();
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
        assert_eq!(s.mode(), OverloadMode::Normal);
        assert_eq!(s.report().degraded_entries, 0);
    }

    #[test]
    fn tenant_scoped_supervisor_never_degrades_globally() {
        let mut s = OverloadSupervisor::new(SupervisorConfig::tenant_scoped(), 2);
        for i in 0..10 {
            s.on_overrun(0, t(i));
        }
        // The offender is quarantined; the system never collectively
        // degrades, so the innocent neighbour keeps its optional parts.
        assert_eq!(s.mode(), OverloadMode::Normal);
        assert!(s.shed_optional(0));
        assert!(!s.shed_optional(1));
        assert_eq!(s.report().degraded_entries, 0);
    }

    #[test]
    fn finish_accrues_dwell_when_still_degraded() {
        let mut s = sup(1);
        s.on_overrun(0, t(0));
        s.on_overrun(0, t(10));
        assert_eq!(s.mode(), OverloadMode::Degraded);
        let rep = s.finish(t(100));
        assert_eq!(rep.degraded_dwell, t(100) - t(10));
        // Never recovered, so no recovery latency was booked.
        assert_eq!(rep.recovery_latency, Span::ZERO);
    }
}
