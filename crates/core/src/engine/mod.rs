//! Backend-independent P-RMWP engine: the single home of the per-task /
//! per-job part state machine (paper §II–§IV).
//!
//! The engine is **sans-IO**: it owns job/part state as pure data and never
//! touches an event queue, a ready queue, a thread, or a timer. Drivers
//! (the discrete-event [`SimExecutor`](crate::exec_sim::SimExecutor), the
//! global-scheduling ablation
//! [`GlobalExecutor`](crate::exec_global::GlobalExecutor), and the native
//! POSIX [`runtime`](crate::runtime)) feed it typed inputs — a job released,
//! a part completed, the optional-deadline timer fired, a wind-up release
//! arrived, a CPU stalled — and act on the typed commands it returns:
//! arm a timer at a given instant, stop a part on a given hardware thread,
//! release the wind-up at a given instant, or nothing because the engine
//! already finished the job.
//!
//! Everything behavioural lives here exactly once:
//!
//! * the [`JobPhase`] lifecycle (release → mandatory → parallel optional →
//!   OD termination → wind-up → done/abort), with the legal transitions
//!   `debug_assert`-checked against [`JobPhase::can_transition_to`];
//! * execution banking and supervisor budget cuts;
//! * OD/wind-up sequencing, including the §IV-B sleep-queue wait and the
//!   Table I signal-mask defect that breaks later timers;
//! * QoS streaming ([`QosSummary::record_job`]), response-time/jitter
//!   metrics, and every [`TraceEvent`] the protocol emits.
//!
//! What stays in the driver is *mechanism*: dispatching and preemption
//! (ready queues, migration), overhead sampling order (the simulator's
//! [`OverheadModel`](rtseed_sim::OverheadModel) calls happen driver-side so
//! the RNG stream is untouched by refactors), and the mapping from engine
//! commands onto events, threads, or timers. Drivers call the fine-grained
//! methods in the same order the protocol performs the underlying actions,
//! which keeps traces — including the byte-identical golden trace —
//! reproducible across backends.
//!
//! The engine preserves the allocation-free hot path: per-task state lives
//! in slabs reused across jobs (`parts` is cleared and resized in place),
//! and no engine method allocates in steady state.

use rtseed_model::{
    CoreId, HwThreadId, JobId, JobPhase, OptionalOutcome, PartId, Priority,
    QosSummary, Span, TaskId, TenantId, Time, Topology,
};
use rtseed_sim::{FaultPlan, FaultTarget, OverheadKind, TimerFault};

use crate::config::SystemConfig;
use crate::executor::{Outcome, RunConfig};
use crate::obs::{MetricsRegistry, Trace, TraceEvent, TraceRecorder};
use crate::obs::{QueueBand, QueueOp};
use crate::policy::AssignmentPolicy;
use crate::report::{FaultReport, OverheadReport};
use crate::supervisor::{OverloadSupervisor, SupervisorMode};
use crate::termination::TerminationMode;

/// Which part of a job a unit of schedulable work belongs to.
///
/// Shared by every driver's work/dispatch bookkeeping so the engine can
/// identify the part being banked, dispatched, cut, or stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cursor {
    /// The mandatory part (SCHED_FIFO, pinned).
    Mandatory,
    /// Optional part `k` (NRTQ priority, policy-placed).
    Optional(u32),
    /// The wind-up part (SCHED_FIFO, pinned).
    Windup,
}

/// What [`Engine::release`] established for the new job.
#[derive(Debug, Clone, Copy)]
pub struct Release {
    /// The released job's identity.
    pub job: JobId,
    /// The job's sequence number (feed back into
    /// [`Engine::od_expired`] / [`Engine::windup_ready`] so stale timers
    /// are detected).
    pub seq: u64,
    /// The job has optional parts, so an OD timer should be armed.
    pub has_parts: bool,
    /// When the task's next job releases, if any jobs remain.
    pub next_release: Option<Time>,
}

/// How the wind-up part of a job is to be released.
#[derive(Debug, Clone, Copy)]
pub enum WindupCommand {
    /// There is no wind-up part; the engine already finished the job with
    /// the given deadline verdict. Nothing to do.
    Finished {
        /// Whether the job met its relative deadline.
        met: bool,
    },
    /// The wind-up was already scheduled earlier in this job; ignore.
    AlreadyScheduled,
    /// Release the wind-up part at `at` (now or in the future — the task
    /// sleeps in the SQ until then). The driver delivers
    /// [`Engine::windup_ready`] with the same `seq` at that instant.
    At {
        /// The wind-up release instant.
        at: Time,
        /// The job sequence number to echo back.
        seq: u64,
    },
}

/// What follows the completion of a job's mandatory part.
#[derive(Debug, Clone, Copy)]
pub enum AfterMandatory {
    /// No optional execution happens (no parts, parts discarded at OD
    /// overrun, or parts shed by the supervisor): proceed per the wind-up
    /// command.
    Windup(WindupCommand),
    /// Signal all `np` optional parts: the driver runs its backend's
    /// signalling mechanism (Δb/Δs costs, thread wake-ups) and makes each
    /// part runnable.
    Signal {
        /// Number of optional parts to signal.
        np: usize,
    },
}

/// Verdict of delivering an optional-deadline timer expiry to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OdAction {
    /// The timer was stale (old job, broken timer): nothing happened.
    Stale,
    /// The expiry was absorbed without terminations (mandatory part still
    /// running, or all parts already ended).
    Handled,
    /// Terminate the job's still-active optional parts: for each `k` in
    /// `0..np`, call [`Engine::plan_terminate`] / stop the part /
    /// [`Engine::commit_terminate`], then [`Engine::finish_termination`].
    Terminate {
        /// Number of optional parts (the loop bound; ended parts are
        /// skipped by [`Engine::plan_terminate`] returning `None`).
        np: usize,
    },
}

/// A fault (or proof of health) the engine attributes to a task's owning
/// tenant, for the serving layer's degradation ladder.
///
/// Signals are queued only for tasks that carry a [`TenantId`] (the
/// one-shot executors never tag tasks, so they pay nothing), and only
/// while [`Engine::arm_tenant_signals`] says someone consumes them; the
/// serving layer's armed guard drains them with
/// [`Engine::drain_tenant_signals`] after every event that raised one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantSignal {
    /// A real-time part of the tenant's task hit its supervisor budget
    /// with demand remaining (WCET overrun, cut at the declared bound).
    Overrun,
    /// A job of the tenant's task missed its relative deadline.
    DeadlineMiss,
    /// The tenant's optional-deadline one-shot was lost (timer fault).
    TimerLost,
    /// A job finished within budget and met its deadline.
    CleanJob,
}

/// Where a part to be terminated is running or queued, for the driver to
/// stop it.
#[derive(Debug, Clone, Copy)]
pub struct StopTarget {
    /// Hardware thread the part was placed on.
    pub hw: usize,
    /// The priority level it occupies there.
    pub prio: Priority,
    /// The termination handler hopped to a different core than the
    /// previous part's (drives the simulator's cross-core Δe cost).
    pub cross_core: bool,
}

/// Everything the engine measured, surrendered at the end of a run.
#[derive(Debug)]
pub struct EngineOutput {
    /// Per-job QoS accounting (§IV).
    pub qos: QosSummary,
    /// Histogram metrics (overheads, response times, jitter, QoS ppm).
    pub metrics: MetricsRegistry,
    /// The recorded trace (empty and free if tracing was disabled).
    pub trace: Trace,
    /// Supervisor fault/overload counters.
    pub faults: FaultReport,
    /// Per-tenant QoS accounting, sorted by [`TenantId`] — which is
    /// first-admission order under the serving layer, whose ids ascend.
    /// Empty unless tasks were added with a tenant via
    /// [`Engine::add_task`] (the one-shot executors never tag tasks, so
    /// their outputs carry none).
    pub tenant_qos: Vec<(TenantId, QosSummary)>,
}

impl EngineOutput {
    /// The [`Outcome`] of a simulated run: what the engine measured plus
    /// the driver's event count, every backend-specific field at its
    /// default. (`tenant_qos` has no place in an `Outcome`; the serving
    /// layer reads it first.)
    pub fn into_outcome(self, events_processed: u64) -> Outcome {
        Outcome {
            qos: self.qos,
            overheads: OverheadReport::from_metrics(&self.metrics),
            faults: self.faults,
            metrics: self.metrics,
            trace: self.trace,
            events_processed,
            ..Default::default()
        }
    }
}

/// The one description of a placed task: what [`Engine::add_task`] takes,
/// whoever places the task. A closed set's tasks are read out of their
/// [`SystemConfig`] by [`TaskParams::from_config`]; the serving layer
/// builds one per task of an admission decision at runtime.
#[derive(Debug, Clone)]
pub struct TaskParams {
    /// The task's identity (unique within this engine).
    pub id: TaskId,
    /// Owning tenant, if the task was admitted by the serving layer.
    pub tenant: Option<TenantId>,
    /// Hardware thread the mandatory/wind-up parts are pinned to.
    pub mandatory_hw: usize,
    /// Second host CPU for a semi-partitioned split task: odd-numbered
    /// jobs run wholly there (decided at release, never mid-job).
    pub secondary_hw: Option<usize>,
    /// Dedicated core granted to a semi-federated task: the wind-up part
    /// (and its optional parts, via `placements`) runs there.
    pub granted_hw: Option<usize>,
    /// Hardware thread each optional part is placed on.
    pub placements: Vec<usize>,
    /// SCHED_FIFO priority of the real-time parts.
    pub mand_prio: Priority,
    /// SCHED_FIFO priority of the optional parts.
    pub opt_prio: Priority,
    /// Period `Tᵢ`.
    pub period: Span,
    /// Relative deadline `Dᵢ`.
    pub deadline: Span,
    /// Mandatory WCET `mᵢ` (as declared; [`Engine::add_task`] applies the
    /// run's `rt_exec_fraction`).
    pub mandatory: Span,
    /// Wind-up WCET `wᵢ` (as declared, see `mandatory`).
    pub windup: Span,
    /// Optional part demands `oᵢ,ₖ`.
    pub optional: Vec<Span>,
    /// Relative optional deadline from the admission analysis.
    pub od: Span,
}

impl TaskParams {
    /// Task `id` of a closed set, as `cfg` placed it offline: no tenant,
    /// WCETs as declared.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn from_config(cfg: &SystemConfig, id: TaskId) -> TaskParams {
        let spec = cfg.set().get(id).expect("task id out of range");
        TaskParams {
            id,
            tenant: None,
            mandatory_hw: cfg.mandatory_hw(id).index(),
            secondary_hw: cfg.secondary_hw(id).map(|h| h.index()),
            granted_hw: cfg.granted_hw(id).map(|h| h.index()),
            placements: cfg
                .optional_placements(id)
                .iter()
                .map(|h| h.index())
                .collect(),
            mand_prio: cfg.priorities().mandatory(id),
            opt_prio: cfg.priorities().optional(id),
            period: spec.period(),
            deadline: spec.deadline(),
            mandatory: spec.mandatory(),
            windup: spec.windup(),
            optional: spec.optional_parts().to_vec(),
            od: cfg.optional_deadline(id),
        }
    }
}

#[derive(Debug, Clone)]
struct PartState {
    executed: Span,
    running_since: Option<Time>,
    started: Option<Time>,
    outcome: Option<OptionalOutcome>,
}

impl PartState {
    fn fresh() -> PartState {
        PartState {
            executed: Span::ZERO,
            running_since: None,
            started: None,
            outcome: None,
        }
    }
}

#[derive(Debug)]
struct TaskState {
    /// Static configuration, as handed to [`Engine::add_task`] (the WCETs
    /// already scaled by the run's `rt_exec_fraction`).
    p: TaskParams,
    // Per-job state.
    seq: u64,
    release: Time,
    phase: JobPhase,
    rt_remaining: Span,
    /// Supervisor execution budget remaining for the current real-time
    /// part (only enforced when the supervisor is armed).
    rt_budget: Span,
    parts: Vec<PartState>,
    /// How many of `parts` have no outcome yet (the completion handler
    /// asks after every part; a scan there reads ≈ np²/2 states a job).
    /// 32 bits here, in `qos_slot` and in `optional_keep` keep this
    /// struct at 232 bytes: a serving session holds one per resident task.
    open_parts: u32,
    /// The owning tenant's entry in the engine's `tenant_qos`, resolved
    /// once at [`Engine::add_task`]; meaningless without a tenant.
    qos_slot: u32,
    windup_scheduled: bool,
    /// The task entered the SQ waiting for its wind-up release (traced so
    /// the SQ enqueue/remove pair stays balanced).
    in_sq: bool,
    /// The current job exceeded a real-time budget (supervisor cut it).
    overran: bool,
    /// The current job ran with its optional parts shed (degraded mode or
    /// quarantine).
    shed: bool,
    /// Tenant-guard QoS floor: keep at most this many optional parts per
    /// job (`Some(0)` = mandatory-only, `None` = no floor). Persists
    /// across jobs until the serving layer changes it.
    optional_keep: Option<u32>,
    // Across jobs.
    timer_broken: bool,
    jobs_done: u64,
}

impl TaskState {
    fn od_time(&self) -> Time {
        self.release + self.p.od
    }

    fn job(&self) -> JobId {
        JobId {
            task: self.p.id,
            seq: self.seq,
        }
    }

    fn parts_all_ended(&self) -> bool {
        debug_assert_eq!(
            self.open_parts as usize,
            self.parts.iter().filter(|p| p.outcome.is_none()).count()
        );
        self.open_parts == 0
    }

    /// Fixes part `k`'s outcome; the one place an outcome is written.
    fn end_part(&mut self, k: usize, outcome: OptionalOutcome) {
        if self.parts[k].outcome.replace(outcome).is_none() {
            self.open_parts -= 1;
        }
    }

    fn requested_optional(&self) -> Span {
        self.p.optional.iter().copied().sum()
    }
}

/// The shared P-RMWP part state machine (see the [module docs](self)).
///
/// One `Engine` instance drives either a whole task set (simulation and
/// global backends, [`Engine::new`]), a single task (one per native
/// thread, [`Engine::single_task`]; per-thread outputs are merged by the
/// native executor), or an open population (the serving layer,
/// [`Engine::empty`]). All three start empty and take every task through
/// [`Engine::add_task`].
#[derive(Debug)]
pub struct Engine {
    tasks: Vec<TaskState>,
    jobs: u64,
    live: usize,
    rt_exec_fraction: f64,
    fault_plan: FaultPlan,
    termination: TerminationMode,
    topology: Topology,
    sup: OverloadSupervisor,
    qos: QosSummary,
    /// Per-tenant QoS summaries sorted by tenant id; a task reaches its
    /// tenant's through its `qos_slot`. Tenant ids arrive ascending, so
    /// the table only appends. Empty (and untouched on the hot path) when
    /// no task carries a tenant tag.
    tenant_qos: Vec<(TenantId, QosSummary)>,
    /// Tenant-attributed fault signals queued for the serving layer
    /// (empty and untouched unless tasks carry tenants and signals are
    /// armed).
    tenant_signals: Vec<(TenantId, TenantSignal)>,
    /// Someone drains `tenant_signals`: without a consumer nothing is
    /// queued, or the queue would gain an entry per tenant job.
    signals_armed: bool,
    metrics: MetricsRegistry,
    rec: TraceRecorder,
    // Termination-loop scratch (reset by `od_expired`, consumed by
    // `finish_termination`): keeps the O(npᵢ) handling serialization and
    // the cooperative-mode lag without per-expiry allocation.
    term_at: Time,
    term_handling: Span,
    term_max_lag: Span,
    term_prev_core: Option<CoreId>,
    pending_achieved: Span,
}

/// The run's `rt_exec_fraction`, checked to lie within `(0, 1]`.
fn checked_fraction(run: &RunConfig) -> f64 {
    assert!(
        run.rt_exec_fraction > 0.0 && run.rt_exec_fraction <= 1.0,
        "rt_exec_fraction must be within (0, 1]"
    );
    run.rt_exec_fraction
}

impl Engine {
    /// Creates an engine for every task of `cfg` with run parameters
    /// `run`: an [`Engine::empty`] one that every task of the closed set
    /// then enters, in task order, through [`Engine::add_task`].
    pub fn new(cfg: &SystemConfig, run: &RunConfig) -> Engine {
        let mut eng = Engine::empty(*cfg.topology(), run);
        eng.add_closed_set(cfg);
        eng
    }

    /// Re-initializes this engine in place for a fresh run of `cfg`/`run`,
    /// as if freshly built by [`Engine::new`], but reusing the task
    /// vector's and tenant buffers' allocations. Together with
    /// [`Engine::take_output`] this lets a Monte-Carlo worker recycle one
    /// engine across thousands of runs: construction cost becomes O(tasks)
    /// instead of O(tasks) *allocations*.
    ///
    /// Every piece of run state is overwritten — nothing from the previous
    /// run (QoS, overheads, metrics, trace, supervisor strikes, per-task
    /// phase) can leak into the next one. The differential tests in
    /// `tests/tests/mcbench.rs` pin this: a pooled run through a recycled
    /// engine must reproduce a standalone run byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < run.rt_exec_fraction ≤ 1` (like [`Engine::new`]).
    pub fn reset(&mut self, cfg: &SystemConfig, run: &RunConfig) {
        self.reset_empty(*cfg.topology(), run);
        self.add_closed_set(cfg);
    }

    /// Adds every task of `cfg`, in task order, to an engine that holds
    /// none. The slots are reserved up front, so a closed run allocates
    /// once for the task vector however many tasks enter.
    fn add_closed_set(&mut self, cfg: &SystemConfig) {
        let n = cfg.set().len();
        self.tasks.reserve_exact(n);
        self.sup.reserve(n);
        for id in cfg.set().ids() {
            self.add_task(TaskParams::from_config(cfg, id));
        }
    }

    /// Creates an engine driving only task `id` of `cfg` (the native
    /// runtime runs one engine per task thread and merges the outputs).
    ///
    /// Fault injection and the overload supervisor are simulation-side
    /// concerns: whatever `run` carries for them, this engine injects
    /// nothing and cuts nothing.
    pub fn single_task(cfg: &SystemConfig, id: TaskId, run: &RunConfig) -> Engine {
        let mut eng = Engine::empty(*cfg.topology(), run);
        eng.fault_plan = FaultPlan::default();
        eng.rearm_supervisor(SupervisorMode::Off);
        eng.add_task(TaskParams::from_config(cfg, id));
        eng
    }

    /// Creates an engine with **no tasks** on `topology`: the starting
    /// point of every front-end. Tasks arrive through [`Engine::add_task`]
    /// — all at once for a closed set, one admission at a time in the
    /// serving layer — and leave through [`Engine::remove_task`].
    ///
    /// `run` supplies everything run-scoped: the per-task job quota, the
    /// `rt_exec_fraction`, the termination mode, fault plan, supervisor
    /// switch, and trace sink.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < run.rt_exec_fraction ≤ 1`.
    pub fn empty(topology: Topology, run: &RunConfig) -> Engine {
        Engine {
            tasks: Vec::new(),
            jobs: run.jobs,
            live: 0,
            rt_exec_fraction: checked_fraction(run),
            fault_plan: run.fault_plan.clone(),
            termination: run.termination,
            topology,
            sup: OverloadSupervisor::new(SupervisorMode::of_run(run.supervisor), 0),
            qos: QosSummary::new(),
            tenant_qos: Vec::new(),
            tenant_signals: Vec::new(),
            signals_armed: false,
            metrics: MetricsRegistry::new(),
            rec: TraceRecorder::new(run.trace),
            term_at: Time::ZERO,
            term_handling: Span::ZERO,
            term_max_lag: Span::ZERO,
            term_prev_core: None,
            pending_achieved: Span::ZERO,
        }
    }

    /// Re-initializes this engine in place as if freshly built by
    /// [`Engine::empty`], but reusing the task vector's and tenant
    /// buffers' allocations (churn-replay workers recycle one engine
    /// across many sessions this way, Monte-Carlo workers through
    /// [`Engine::reset`]). Every piece of run state is overwritten; a hot
    /// engine must reproduce a cold one byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < run.rt_exec_fraction ≤ 1` (like [`Engine::empty`]).
    pub fn reset_empty(&mut self, topology: Topology, run: &RunConfig) {
        self.tasks.clear();
        self.jobs = run.jobs;
        self.live = 0;
        self.rt_exec_fraction = checked_fraction(run);
        self.fault_plan.clone_from(&run.fault_plan);
        self.termination = run.termination;
        self.topology = topology;
        self.sup = OverloadSupervisor::new(SupervisorMode::of_run(run.supervisor), 0);
        self.qos = QosSummary::new();
        self.tenant_qos.clear();
        self.tenant_signals.clear();
        self.signals_armed = false;
        self.metrics = MetricsRegistry::new();
        self.rec.reset(run.trace);
        self.term_at = Time::ZERO;
        self.term_handling = Span::ZERO;
        self.term_max_lag = Span::ZERO;
        self.term_prev_core = None;
        self.pending_achieved = Span::ZERO;
    }

    // ----- task arrival / departure ---------------------------------------

    /// Adds a task and returns its engine index (dense, stable for the
    /// engine's lifetime — departed tasks keep their slot so indices in
    /// the driver's in-flight events never dangle). The only way a task
    /// enters an engine, before the run or in the middle of it.
    ///
    /// The declared mandatory and wind-up WCETs are scaled by the run's
    /// `rt_exec_fraction` here. The new task starts with zero jobs done
    /// and its phase `Done`; the driver schedules its first release. Its
    /// job quota is the engine's `run.jobs`, counted from arrival.
    ///
    /// # Panics
    ///
    /// Panics if the task's tenant id is below the last tenant's: tenants
    /// enter in ascending id order, each with all its tasks at once.
    pub fn add_task(&mut self, mut params: TaskParams) -> usize {
        let idx = self.tasks.len();
        let mut qos_slot = 0;
        if let Some(tenant) = params.tenant {
            let last = self.tenant_qos.last().map(|&(t, _)| t);
            if last != Some(tenant) {
                assert!(last < Some(tenant), "tenant ids enter ascending");
                self.tenant_qos.push((tenant, QosSummary::new()));
            }
            qos_slot = (self.tenant_qos.len() - 1) as u32;
        }
        params.mandatory = params.mandatory.mul_f64(self.rt_exec_fraction);
        params.windup = params.windup.mul_f64(self.rt_exec_fraction);
        self.tasks.push(TaskState {
            p: params,
            seq: 0,
            release: Time::ZERO,
            phase: JobPhase::Done, // becomes Released at first release
            rt_remaining: Span::ZERO,
            rt_budget: Span::ZERO,
            parts: Vec::new(),
            open_parts: 0,
            qos_slot,
            windup_scheduled: false,
            in_sq: false,
            overran: false,
            shed: false,
            optional_keep: None,
            timer_broken: false,
            jobs_done: 0,
        });
        self.sup.add_task();
        // A zero-job quota means the task retires immediately: it must not
        // hold the live count (and the run loop) open.
        if self.jobs > 0 {
            self.live += 1;
        }
        idx
    }

    /// Removes `task` from scheduling: no further jobs release, and any
    /// in-flight timer or wind-up event is absorbed by the stale-sequence
    /// guards. The driver must abort a job still in flight first (the
    /// [`Engine::abort_part`]/[`Engine::finish_abort`] path, exactly as at
    /// a hard deadline miss).
    ///
    /// The slot is retained so existing engine indices stay valid; the
    /// task simply counts as having exhausted its job quota.
    pub fn remove_task(&mut self, task: usize) {
        debug_assert_eq!(
            self.tasks[task].phase,
            JobPhase::Done,
            "abort the in-flight job before removing a task"
        );
        let t = &mut self.tasks[task];
        if t.jobs_done < self.jobs {
            t.jobs_done = self.jobs;
            self.live -= 1;
        }
    }

    /// `task` has no more jobs to run (its quota is exhausted or it was
    /// removed).
    pub fn task_retired(&self, task: usize) -> bool {
        self.tasks[task].jobs_done >= self.jobs
    }

    /// Replaces `task`'s relative optional deadline. The serving layer
    /// applies admission/eviction [`OdUpdate`](rtseed_analysis::OdUpdate)s
    /// here: a newly admitted neighbour shrinks co-located ODs, a
    /// departure grows them.
    ///
    /// Takes effect at the *next* release: the current job's OD timer (if
    /// armed) already carries the old absolute instant, which remains a
    /// sound termination point for that job — for a shrink, the analysis
    /// window that justified the old OD still covers the job in flight,
    /// because admission analyzed the new neighbour's interference only
    /// from its own (later) release on.
    pub fn set_od(&mut self, task: usize, od: Span) {
        self.tasks[task].p.od = od;
    }

    /// Replaces the supervisor's mode. Only legal before any task is
    /// added — the serving layer calls it when the tenant guard arms a
    /// tenant-scoped supervisor over a manager whose run left it off.
    pub(crate) fn rearm_supervisor(&mut self, mode: SupervisorMode) {
        debug_assert!(
            self.tasks.is_empty(),
            "rearm the supervisor before any task is added"
        );
        self.sup = OverloadSupervisor::new(mode, self.tasks.len());
    }

    /// Sets `task`'s tenant-guard QoS floor: future jobs signal at most
    /// `keep` optional parts (`Some(0)` = mandatory-only, like a
    /// quarantine shed; `None` removes the floor). Takes effect at the
    /// next mandatory completion.
    pub fn set_optional_keep(&mut self, task: usize, keep: Option<usize>) {
        // A floor at or above np is no floor, so saturating loses nothing.
        self.tasks[task].optional_keep = keep.map(|k| u32::try_from(k).unwrap_or(u32::MAX));
    }

    /// Moves every queued tenant-attributed fault signal into `out`
    /// (appending, preserving emission order). The serving layer calls
    /// this after each event it processes and feeds the signals to its
    /// degradation ladder.
    pub fn drain_tenant_signals(&mut self, out: &mut Vec<(TenantId, TenantSignal)>) {
        out.append(&mut self.tenant_signals);
    }

    /// Starts queuing tenant signals for [`Engine::drain_tenant_signals`]
    /// to hand out. The serving layer arms them with its guard, the only
    /// consumer; until then, and after every reset, none is queued.
    pub fn arm_tenant_signals(&mut self) {
        self.signals_armed = true;
    }

    /// Whether a tenant signal waits for [`Engine::drain_tenant_signals`].
    #[inline]
    pub fn tenant_signals_pending(&self) -> bool {
        !self.tenant_signals.is_empty()
    }

    /// Queues `signal` against `task`'s owning tenant, if it has one and
    /// signals are armed.
    fn tenant_signal(&mut self, task: usize, signal: TenantSignal) {
        if !self.signals_armed {
            return;
        }
        if let Some(tenant) = self.tasks[task].p.tenant {
            self.tenant_signals.push((tenant, signal));
        }
    }

    // ----- observability --------------------------------------------------

    /// Whether anyone is recording traces (drivers gate the construction
    /// of queue/dispatch events on this, keeping the hot path free when
    /// tracing is off).
    pub fn tracing(&self) -> bool {
        self.rec.enabled()
    }

    /// Records a driver-side trace event (queue ops, dispatches,
    /// migrations) into the engine's recorder at `at`.
    pub fn trace(&mut self, at: Time, ev: TraceEvent) {
        self.rec.record(at, ev);
    }

    /// Records one overhead sample in the histogram metrics.
    pub fn sample(&mut self, kind: OverheadKind, value: Span) {
        self.metrics.record_overhead(kind, value);
    }

    /// Records where `policy` places `task`'s optional parts (paper
    /// Fig. 8) as a decision event at `at`; a task without optional parts
    /// records nothing.
    pub fn trace_policy_decision(&mut self, task: usize, policy: AssignmentPolicy, at: Time) {
        let t = &self.tasks[task];
        let np = t.p.optional.len();
        if np == 0 || !self.rec.enabled() {
            return;
        }
        let ev = TraceEvent::PolicyDecision {
            task: t.p.id,
            policy: policy.label(),
            parts: np as u32,
            distinct_cores: policy.distinct_cores(&self.topology, np),
        };
        self.rec.record(at, ev);
    }

    // ----- accessors ------------------------------------------------------

    /// Number of tasks this engine drives.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Tasks that still have jobs to finish.
    pub fn has_live_tasks(&self) -> bool {
        self.live > 0
    }

    /// The identity of `task`'s current job.
    pub fn job(&self, task: usize) -> JobId {
        self.tasks[task].job()
    }

    /// The current job's sequence number.
    pub fn seq(&self, task: usize) -> u64 {
        self.tasks[task].seq
    }

    /// How many jobs of `task` have finished.
    pub fn jobs_done(&self, task: usize) -> u64 {
        self.tasks[task].jobs_done
    }

    /// A job of `task` is released but not yet done.
    pub fn job_in_flight(&self, task: usize) -> bool {
        self.tasks[task].phase != JobPhase::Done
    }

    /// Number of optional parts of `task`.
    pub fn part_count(&self, task: usize) -> usize {
        self.tasks[task].p.optional.len()
    }

    /// Part `k` of `task`'s current job already has an outcome.
    pub fn part_ended(&self, task: usize, k: usize) -> bool {
        self.tasks[task].parts[k].outcome.is_some()
    }

    /// Any optional part of the current job ended other than `Completed`
    /// (the native driver's per-job degradation counter).
    pub fn parts_degraded(&self, task: usize) -> bool {
        self.tasks[task]
            .parts
            .iter()
            .any(|p| p.outcome != Some(OptionalOutcome::Completed))
    }

    /// Hardware thread the current job's real-time parts run on.
    ///
    /// For a semi-partitioned split task this alternates between the
    /// primary and secondary host CPU by job sequence number (even jobs →
    /// primary, odd → secondary): the binding is decided when the job is
    /// released and `seq` only changes at [`Engine::release`], so a job
    /// never migrates mid-flight — exactly the job-boundary-migration
    /// contract the split-aware admission analysis assumes. Whole and
    /// federated tasks always report their pinned primary CPU.
    pub fn mandatory_hw(&self, task: usize) -> usize {
        let t = &self.tasks[task];
        match t.p.secondary_hw {
            Some(secondary) if t.seq % 2 == 1 => secondary,
            _ => t.p.mandatory_hw,
        }
    }

    /// Hardware thread the current job's wind-up part runs on: the
    /// granted core for a semi-federated task (its wind-up owns the top
    /// band there, next to its optional parts), otherwise the same CPU as
    /// the mandatory part ([`Engine::mandatory_hw`]).
    pub fn windup_hw(&self, task: usize) -> usize {
        let t = &self.tasks[task];
        t.p.granted_hw.unwrap_or_else(|| self.mandatory_hw(task))
    }

    /// The split task's second host CPU (odd-numbered jobs run there), or
    /// `None` for whole/federated tasks.
    pub fn secondary_hw(&self, task: usize) -> Option<usize> {
        self.tasks[task].p.secondary_hw
    }

    /// The semi-federated task's granted core, or `None`.
    pub fn granted_hw(&self, task: usize) -> Option<usize> {
        self.tasks[task].p.granted_hw
    }

    /// Hardware thread optional part `k` is placed on.
    pub fn placement(&self, task: usize, k: usize) -> usize {
        self.tasks[task].p.placements[k]
    }

    /// SCHED_FIFO priority of the task's real-time parts.
    pub fn mand_prio(&self, task: usize) -> Priority {
        self.tasks[task].p.mand_prio
    }

    /// Priority of the task's optional parts.
    pub fn opt_prio(&self, task: usize) -> Priority {
        self.tasks[task].p.opt_prio
    }

    /// The current job's optional deadline (absolute).
    pub fn od_time(&self, task: usize) -> Time {
        self.tasks[task].od_time()
    }

    // ----- job lifecycle --------------------------------------------------

    /// Releases `task`'s next job at `now`: resets per-job state in place
    /// (no allocation in steady state), arms the supervisor budget, applies
    /// any planned mandatory WCET fault, and emits the release trace.
    ///
    /// The driver then makes the mandatory part runnable (after its Δm
    /// wake-up cost), arms the OD timer via [`Engine::arm_timer`] when
    /// [`Release::has_parts`], and schedules [`Release::next_release`].
    pub fn release(&mut self, task: usize, now: Time) -> Release {
        let next_seq = self.tasks[task].jobs_done;
        let mand_factor = self.fault_plan.wcet_factor(
            self.tasks[task].p.id.0,
            next_seq,
            FaultTarget::Mandatory,
        );
        let t = &mut self.tasks[task];
        debug_assert_eq!(t.phase, JobPhase::Done, "release over an unfinished job");
        t.release = now;
        t.seq = t.jobs_done;
        t.phase = JobPhase::Released;
        t.rt_remaining = t.p.mandatory.mul_f64(mand_factor);
        // Reset part states in place: after the first job this reuses the
        // Vec's capacity, so releases allocate nothing in steady state.
        t.parts.clear();
        t.parts.resize(t.p.optional.len(), PartState::fresh());
        t.open_parts = u32::try_from(t.parts.len()).expect("np fits 32 bits");
        t.windup_scheduled = false;
        t.in_sq = false;
        t.overran = false;
        t.shed = false;
        let seq = t.seq;
        let period = t.p.period;
        let has_parts = !t.p.optional.is_empty();
        let jobs_done = t.jobs_done;
        let job = t.job();
        let mandatory = t.p.mandatory;
        // Split tasks decide the job's host CPU here, at release: this is
        // the only place `seq` changes, so the binding below holds for the
        // whole job.
        let bound_hw = t.p.secondary_hw.map(|secondary| {
            if seq % 2 == 1 {
                secondary
            } else {
                t.p.mandatory_hw
            }
        });
        self.tasks[task].rt_budget = self.sup.budget(mandatory);

        self.rec.record(now, TraceEvent::JobReleased { job });
        if let Some(hw) = bound_hw {
            self.rec.record(
                now,
                TraceEvent::JobBound {
                    job,
                    hw: HwThreadId(hw as u32),
                },
            );
        }
        if mand_factor != 1.0 {
            self.sup.note_wcet_fault();
            self.rec.record(
                now,
                TraceEvent::WcetFaultInjected {
                    job,
                    target: FaultTarget::Mandatory,
                    factor: mand_factor,
                },
            );
        }
        Release {
            job,
            seq,
            has_parts,
            next_release: (jobs_done + 1 < self.jobs).then(|| now + period),
        }
    }

    /// Arms the current job's one-shot optional-deadline timer, applying
    /// any planned timer fault. Returns the instant the timer actually
    /// fires (delayed under a `Delay` fault), or `None` when there is
    /// nothing to arm (no optional parts, or the one-shot is `Lost`).
    pub fn arm_timer(&mut self, task: usize, now: Time) -> Option<Time> {
        let t = &self.tasks[task];
        if t.p.optional.is_empty() {
            return None;
        }
        let od_time = t.od_time();
        let job = t.job();
        let fault = self.fault_plan.timer_fault(t.p.id.0, t.seq);
        match fault {
            None => {
                self.rec
                    .record(now, TraceEvent::TimerArmed { job, at: od_time });
                Some(od_time)
            }
            Some(TimerFault::Delay(d)) => {
                self.sup.note_timer_fault();
                self.rec.record(
                    now,
                    TraceEvent::TimerFaultInjected {
                        job,
                        fault: TimerFault::Delay(d),
                    },
                );
                self.rec.record(
                    now,
                    TraceEvent::TimerArmed {
                        job,
                        at: od_time + d,
                    },
                );
                Some(od_time + d)
            }
            Some(TimerFault::Lost) => {
                self.sup.note_timer_fault();
                self.rec.record(
                    now,
                    TraceEvent::TimerFaultInjected {
                        job,
                        fault: TimerFault::Lost,
                    },
                );
                self.tenant_signal(task, TenantSignal::TimerLost);
                None
            }
        }
    }

    /// Banks `ran` of execution against the given part: real-time parts
    /// burn down their remaining demand and supervisor budget, optional
    /// parts accumulate achieved execution and stop running.
    pub fn bank(&mut self, task: usize, cursor: Cursor, ran: Span) {
        let t = &mut self.tasks[task];
        match cursor {
            Cursor::Mandatory | Cursor::Windup => {
                t.rt_remaining = t.rt_remaining.saturating_sub(ran);
                t.rt_budget = t.rt_budget.saturating_sub(ran);
            }
            Cursor::Optional(k) => {
                // Achieved execution is capped at the part's demand: a
                // driver may bank an inflated slice (fault injection,
                // coarse clocks), but a part can never achieve more QoS
                // than it requested.
                let o_k = t.p.optional[k as usize];
                let part = &mut t.parts[k as usize];
                part.executed = (part.executed + ran).min(o_k);
                part.running_since = None;
            }
        }
    }

    /// After a real-time part's dispatched slice elapsed: under an armed
    /// supervisor the slice was clipped to the remaining budget, so demand
    /// left over means the part hit its budget — cut it (treat it as
    /// complete) and escalate, instead of letting the overrun eat into
    /// lower-priority parts' response times. No-op otherwise.
    pub fn cut_if_over_budget(&mut self, task: usize, cursor: Cursor, now: Time) {
        if !self.sup.enabled() || self.tasks[task].rt_remaining.is_zero() {
            return;
        }
        let target = match cursor {
            Cursor::Windup => FaultTarget::Windup,
            _ => FaultTarget::Mandatory,
        };
        self.tasks[task].rt_remaining = Span::ZERO;
        self.tasks[task].overran = true;
        self.sup.note_budget_cut();
        let job = self.tasks[task].job();
        self.rec.record(now, TraceEvent::BudgetCut { job, target });
        let resp = self.sup.on_overrun(task, now);
        if resp.quarantined_task {
            self.rec.record(now, TraceEvent::TaskQuarantined { job });
        }
        if resp.entered_degraded {
            self.rec.record(now, TraceEvent::DegradedModeEntered);
        }
        self.tenant_signal(task, TenantSignal::Overrun);
    }

    /// The driver dispatched the given part onto hardware thread `hw`:
    /// updates per-part/per-phase state (first mandatory dispatch moves the
    /// phase forward and records release jitter; first optional dispatch
    /// stamps the part's start) and returns the remaining execution to run
    /// — real-time demand clipped to the supervisor budget, or the optional
    /// part's residual.
    pub fn on_dispatch(&mut self, task: usize, cursor: Cursor, hw: usize, now: Time) -> Span {
        match cursor {
            Cursor::Mandatory => {
                let first = self.tasks[task].phase == JobPhase::Released;
                if first {
                    debug_assert!(self.tasks[task]
                        .phase
                        .can_transition_to(JobPhase::MandatoryRunning));
                    self.tasks[task].phase = JobPhase::MandatoryRunning;
                    let job = self.tasks[task].job();
                    let jitter = now.saturating_elapsed_since(self.tasks[task].release);
                    self.metrics.record_release_jitter(jitter);
                    self.rec.record(
                        now,
                        TraceEvent::MandatoryStarted {
                            job,
                            hw: HwThreadId(hw as u32),
                        },
                    );
                }
                self.rt_slice(task)
            }
            Cursor::Windup => self.rt_slice(task),
            Cursor::Optional(k) => {
                let o_k = self.tasks[task].p.optional[k as usize];
                let first_start = {
                    let part = &mut self.tasks[task].parts[k as usize];
                    part.running_since = Some(now);
                    if part.started.is_none() {
                        part.started = Some(now);
                        true
                    } else {
                        false
                    }
                };
                if first_start && self.rec.enabled() {
                    let job = self.tasks[task].job();
                    self.rec.record(
                        now,
                        TraceEvent::OptionalStarted {
                            job,
                            part: PartId(k),
                            hw: HwThreadId(hw as u32),
                        },
                    );
                }
                o_k.saturating_sub(self.tasks[task].parts[k as usize].executed)
            }
        }
    }

    /// Remaining execution to dispatch for a real-time part: the demand,
    /// clipped to the supervisor budget when the supervisor is armed.
    fn rt_slice(&self, task: usize) -> Span {
        let t = &self.tasks[task];
        if self.sup.enabled() {
            t.rt_remaining.min(t.rt_budget)
        } else {
            t.rt_remaining
        }
    }

    /// The mandatory part completed at `now`. Decides what happens next:
    /// signal the optional parts, or — when there are none, they arrive
    /// past OD (§II-B discard), or the supervisor sheds them — proceed
    /// straight to the wind-up command.
    pub fn mandatory_completed(&mut self, task: usize, now: Time) -> AfterMandatory {
        let job = self.tasks[task].job();
        self.rec.record(now, TraceEvent::MandatoryCompleted { job });

        let od_time = self.tasks[task].od_time();
        let np = self.tasks[task].p.optional.len();

        if np == 0 {
            // Degenerate models: no optional parts.
            if self.tasks[task].p.windup.is_zero() {
                // Pure Liu–Layland task: the job is complete.
                self.finish_job(task, now, true);
                return AfterMandatory::Windup(WindupCommand::Finished { met: true });
            }
            let at = now.max(od_time);
            self.tasks[task].phase = JobPhase::OptionalRunning;
            return AfterMandatory::Windup(self.schedule_windup(task, at, now));
        }

        if now >= od_time {
            // §II-B: mandatory part overran the optional deadline — every
            // optional part is discarded and the wind-up part runs
            // immediately after the mandatory part.
            self.discard_all_parts(task, now);
            self.tasks[task].phase = JobPhase::OptionalRunning;
            return AfterMandatory::Windup(self.schedule_windup(task, now, now));
        }

        if self.sup.shed_optional(task) {
            // Overload supervisor: degraded mode or task quarantine —
            // optional parts are shed (discarded unstarted), the wind-up
            // part runs right after the mandatory part. No signalling, no
            // Δb/Δs, no OD-timer interference: minimum service, maximum
            // headroom.
            self.sup.note_degraded_job();
            self.tasks[task].shed = true;
            self.discard_all_parts(task, now);
            self.tasks[task].phase = JobPhase::OptionalRunning;
            return AfterMandatory::Windup(self.schedule_windup(task, now, now));
        }

        let floor = self.tasks[task].optional_keep.map(|k| k as usize);
        if let Some(keep) = floor.filter(|&k| k < np) {
            // Tenant-guard QoS floor: only the first `keep` parts are
            // signalled; the rest are discarded unstarted (partial shed).
            self.sup.note_degraded_job();
            self.tasks[task].shed = true;
            if keep == 0 {
                // Mandatory-only: same path as a supervisor shed.
                self.discard_all_parts(task, now);
                self.tasks[task].phase = JobPhase::OptionalRunning;
                return AfterMandatory::Windup(self.schedule_windup(task, now, now));
            }
            self.discard_parts_from(task, keep, now);
            debug_assert!(self.tasks[task]
                .phase
                .can_transition_to(JobPhase::OptionalRunning));
            self.tasks[task].phase = JobPhase::OptionalRunning;
            return AfterMandatory::Signal { np: keep };
        }

        debug_assert!(self.tasks[task]
            .phase
            .can_transition_to(JobPhase::OptionalRunning));
        self.tasks[task].phase = JobPhase::OptionalRunning;
        AfterMandatory::Signal { np }
    }

    fn discard_all_parts(&mut self, task: usize, now: Time) {
        self.discard_parts_from(task, 0, now);
    }

    /// Discards parts `from..np` unstarted (zero achieved execution).
    fn discard_parts_from(&mut self, task: usize, from: usize, now: Time) {
        let np = self.tasks[task].p.optional.len();
        for k in from..np {
            self.tasks[task].end_part(k, OptionalOutcome::Discarded);
            if self.rec.enabled() {
                let job = self.tasks[task].job();
                self.rec.record(
                    now,
                    TraceEvent::OptionalEnded {
                        job,
                        part: PartId(k as u32),
                        outcome: OptionalOutcome::Discarded,
                        achieved: Span::ZERO,
                    },
                );
            }
        }
    }

    /// Optional part `k` ran to completion at `now`. When it was the last
    /// part to end, the OD timer is (conceptually) cancelled and the
    /// returned command releases the wind-up at `max(now, OD)` (§IV-B).
    pub fn optional_completed(
        &mut self,
        task: usize,
        k: u32,
        now: Time,
    ) -> Option<WindupCommand> {
        let ki = k as usize;
        let o_k = self.tasks[task].p.optional[ki];
        {
            let part = &mut self.tasks[task].parts[ki];
            part.executed = o_k;
            part.running_since = None;
        }
        self.tasks[task].end_part(ki, OptionalOutcome::Completed);
        if self.rec.enabled() {
            let job = self.tasks[task].job();
            self.rec.record(
                now,
                TraceEvent::OptionalEnded {
                    job,
                    part: PartId(k),
                    outcome: OptionalOutcome::Completed,
                    achieved: o_k,
                },
            );
        }

        if self.tasks[task].parts_all_ended() && !self.tasks[task].windup_scheduled {
            // All parts completed before the optional deadline: the
            // optional-deadline timer is stopped and the task sleeps in the
            // SQ until OD, when the wind-up part is released (§IV-B).
            let job = self.tasks[task].job();
            self.rec.record(now, TraceEvent::TimerCancelled { job });
            let at = now.max(self.tasks[task].od_time());
            return Some(self.schedule_windup(task, at, now));
        }
        None
    }

    /// The wind-up part completed at `now`: finishes the job and returns
    /// whether its relative deadline was met.
    pub fn windup_completed(&mut self, task: usize, now: Time) -> bool {
        let deadline = self.tasks[task].release + self.tasks[task].p.deadline;
        let met = now <= deadline;
        self.finish_job(task, now, met);
        met
    }

    /// The optional-deadline timer for job `seq` fired at `now`.
    ///
    /// Stale timers (finished jobs, the Table I broken timer) are absorbed
    /// silently; an expiry during the mandatory part or after every part
    /// already ended is traced but terminates nothing. Otherwise the driver
    /// runs the termination loop (see [`OdAction::Terminate`]).
    pub fn od_expired(&mut self, task: usize, seq: u64, now: Time) -> OdAction {
        if self.tasks[task].seq != seq
            || self.tasks[task].jobs_done != seq
            || self.tasks[task].phase == JobPhase::Done
        {
            return OdAction::Stale; // stale timer from an already-finished job
        }
        if self.tasks[task].timer_broken {
            // Table I: the try-catch implementation does not restore the
            // signal mask, so "the timer interrupt of the next job does not
            // occur" — optional parts now run unchecked.
            return OdAction::Stale;
        }
        let job = self.tasks[task].job();
        self.rec
            .record(now, TraceEvent::OptionalDeadlineExpired { job });

        if self.tasks[task].phase != JobPhase::OptionalRunning {
            // Mandatory part still running: nothing to terminate — the
            // discard path triggers at mandatory completion.
            return OdAction::Handled;
        }
        if self.tasks[task].parts_all_ended() {
            return OdAction::Handled; // timer (conceptually) cancelled early
        }
        // Termination happens when the timer actually fires: `now` is the
        // nominal OD normally, later if the fault plan delayed the one-shot
        // (parts kept running in the meantime).
        self.term_at = now;
        self.term_handling = Span::ZERO;
        self.term_max_lag = Span::ZERO;
        self.term_prev_core = None;
        OdAction::Terminate {
            np: self.tasks[task].p.optional.len(),
        }
    }

    /// Plans the termination of part `k`: computes its achieved execution
    /// (whatever ran before OD, plus — for cooperative modes — the lag
    /// until the next checkpoint) and where the driver must stop it.
    /// Returns `None` for parts that already ended.
    ///
    /// The driver stops the part (banking is overwritten by
    /// [`Engine::commit_terminate`]) and, where its backend charges a
    /// per-part handling cost, reports it via
    /// [`Engine::note_termination_cost`].
    pub fn plan_terminate(&mut self, task: usize, k: usize) -> Option<StopTarget> {
        if self.tasks[task].parts[k].outcome.is_some() {
            return None;
        }
        let hw = self.tasks[task].p.placements[k];
        let core = self.topology.core_of(HwThreadId(hw as u32));
        let cross_core = self.term_prev_core.is_some_and(|c| c != core);
        self.term_prev_core = Some(core);

        let o_k = self.tasks[task].p.optional[k];
        let term_at = self.term_at;
        let (achieved, lag) = {
            let part = &self.tasks[task].parts[k];
            match part.running_since {
                Some(since) => {
                    let lag = self
                        .termination
                        .termination_lag(part.started.unwrap_or(since), term_at);
                    let ran = term_at.saturating_elapsed_since(since) + lag;
                    ((part.executed + ran).min(o_k), lag)
                }
                None => (part.executed, Span::ZERO),
            }
        };
        self.term_max_lag = self.term_max_lag.max(lag);
        self.pending_achieved = achieved;
        Some(StopTarget {
            hw,
            prio: self.tasks[task].p.opt_prio,
            cross_core,
        })
    }

    /// Adds one part's termination-handling cost (timer interrupt, stack
    /// restore, completion signalling) to the serialized Δe total.
    pub fn note_termination_cost(&mut self, cost: Span) {
        self.term_handling += cost;
    }

    /// Finalizes the termination planned by the latest
    /// [`Engine::plan_terminate`]: fixes the part's achieved execution and
    /// outcome (`Completed` if it reached its demand, else `Terminated`).
    pub fn commit_terminate(&mut self, task: usize, k: usize, now: Time) {
        let achieved = self.pending_achieved;
        let o_k = self.tasks[task].p.optional[k];
        let outcome = if achieved >= o_k {
            OptionalOutcome::Completed
        } else {
            OptionalOutcome::Terminated
        };
        {
            let part = &mut self.tasks[task].parts[k];
            part.executed = achieved;
            part.running_since = None;
        }
        self.tasks[task].end_part(k, outcome);
        if self.rec.enabled() {
            let job = self.tasks[task].job();
            self.rec.record(
                now,
                TraceEvent::OptionalEnded {
                    job,
                    part: PartId(k as u32),
                    outcome,
                    achieved,
                },
            );
        }
    }

    /// Ends the termination loop: samples Δe (serialized handling plus the
    /// worst cooperative lag), applies the Table I signal-mask defect for
    /// modes that model it, and returns the wind-up command (released after
    /// the handling completes).
    pub fn finish_termination(&mut self, task: usize, now: Time) -> WindupCommand {
        let handling = self.term_handling;
        let max_lag = self.term_max_lag;
        self.sample(OverheadKind::EndOptional, handling + max_lag);
        if self.termination.models_signal_mask_defect() {
            self.tasks[task].timer_broken = true;
        }
        let windup_at = self.term_at + max_lag + handling;
        self.schedule_windup(task, windup_at, now)
    }

    /// Decides how the wind-up releases. `at` is the release instant; `now`
    /// is the current time (a zero-length wind-up finishes the job on the
    /// spot, and a future `at` parks the task in the SQ, §IV-B).
    fn schedule_windup(&mut self, task: usize, at: Time, now: Time) -> WindupCommand {
        if self.tasks[task].windup_scheduled {
            return WindupCommand::AlreadyScheduled;
        }
        self.tasks[task].windup_scheduled = true;
        if self.tasks[task].p.windup.is_zero() {
            // No wind-up part: the job ends once its optional side is done.
            let deadline = self.tasks[task].release + self.tasks[task].p.deadline;
            let met = at <= deadline;
            self.finish_job(task, now, met);
            return WindupCommand::Finished { met };
        }
        if at > now {
            // The task sleeps in the SQ until its wind-up release (§IV-B).
            self.tasks[task].in_sq = true;
            let job = self.tasks[task].job();
            self.rec.record(
                now,
                TraceEvent::Queue {
                    band: QueueBand::Sq,
                    op: QueueOp::Enqueue,
                    job,
                    hw: None,
                },
            );
        }
        WindupCommand::At {
            at,
            seq: self.tasks[task].seq,
        }
    }

    /// The wind-up release instant for job `seq` arrived at `now`: moves
    /// the job into the wind-up phase (leaving the SQ, applying any planned
    /// wind-up WCET fault) and returns `true` when the driver should make
    /// the wind-up part runnable. Stale or out-of-phase deliveries return
    /// `false`.
    pub fn windup_ready(&mut self, task: usize, seq: u64, now: Time) -> bool {
        if self.tasks[task].seq != seq
            || self.tasks[task].phase != JobPhase::OptionalRunning
        {
            return false;
        }
        if self.tasks[task].in_sq {
            self.tasks[task].in_sq = false;
            let job = self.tasks[task].job();
            self.rec.record(
                now,
                TraceEvent::Queue {
                    band: QueueBand::Sq,
                    op: QueueOp::Remove,
                    job,
                    hw: None,
                },
            );
        }
        let factor =
            self.fault_plan
                .wcet_factor(self.tasks[task].p.id.0, seq, FaultTarget::Windup);
        debug_assert!(self.tasks[task]
            .phase
            .can_transition_to(JobPhase::WindupRunning));
        self.tasks[task].phase = JobPhase::WindupRunning;
        self.tasks[task].rt_remaining = self.tasks[task].p.windup.mul_f64(factor);
        let windup = self.tasks[task].p.windup;
        self.tasks[task].rt_budget = self.sup.budget(windup);
        let job = self.tasks[task].job();
        self.rec.record(now, TraceEvent::WindupStarted { job });
        if factor != 1.0 {
            self.sup.note_wcet_fault();
            self.rec.record(
                now,
                TraceEvent::WcetFaultInjected {
                    job,
                    target: FaultTarget::Windup,
                    factor,
                },
            );
        }
        true
    }

    /// A fault-plan CPU stall window opened on `hw` at `now`: counts the
    /// fault and traces it. Vacating the hardware thread (banking whatever
    /// ran, re-queueing at the head of its level) is the driver's job — the
    /// engine doesn't know what was running where.
    pub fn stall_started(&mut self, hw: usize, duration: Span, now: Time) {
        self.sup.note_cpu_stall();
        self.rec.record(
            now,
            TraceEvent::CpuStallStarted {
                hw: HwThreadId(hw as u32),
                duration,
            },
        );
    }

    /// Finalizes part `k` of a job being aborted at its next release: any
    /// residual running time is banked defensively, and the outcome is
    /// `Terminated` if the part ever started, `Discarded` otherwise.
    pub fn abort_part(&mut self, task: usize, k: usize, now: Time) {
        let part = &mut self.tasks[task].parts[k];
        if part.outcome.is_some() {
            return;
        }
        if let Some(since) = part.running_since.take() {
            part.executed += now.saturating_elapsed_since(since);
        }
        let outcome = if part.started.is_some() {
            OptionalOutcome::Terminated
        } else {
            OptionalOutcome::Discarded
        };
        self.tasks[task].end_part(k, outcome);
    }

    /// Forcibly finishes a job that is still incomplete at its next release
    /// (deadline missed hard). The driver has already stopped the job's
    /// work and finalized its parts via [`Engine::abort_part`].
    pub fn finish_abort(&mut self, task: usize, now: Time) {
        self.finish_job(task, now, false);
    }

    /// Records an optional part's real measured execution (the native
    /// backend observes parts instead of simulating them): sets its start,
    /// achieved execution, and outcome, and emits the start/end trace pair
    /// at the measured instants.
    pub fn part_observed(
        &mut self,
        task: usize,
        k: usize,
        started: Time,
        executed: Span,
        outcome: OptionalOutcome,
    ) {
        {
            let part = &mut self.tasks[task].parts[k];
            part.executed = executed;
            part.running_since = None;
            part.started = Some(started);
        }
        self.tasks[task].end_part(k, outcome);
        if self.rec.enabled() {
            let job = self.tasks[task].job();
            let hw = self.tasks[task].p.placements[k];
            self.rec.record(
                started,
                TraceEvent::OptionalStarted {
                    job,
                    part: PartId(k as u32),
                    hw: HwThreadId(hw as u32),
                },
            );
            self.rec.record(
                started + executed,
                TraceEvent::OptionalEnded {
                    job,
                    part: PartId(k as u32),
                    outcome,
                    achieved: executed,
                },
            );
        }
    }

    /// Credits migration cost to the task's real-time demand and budget
    /// (the global ablation charges migrations to the migrating part).
    pub fn add_migration_debt(&mut self, task: usize, cost: Span) {
        let t = &mut self.tasks[task];
        t.rt_remaining += cost;
        t.rt_budget += cost;
    }

    fn finish_job(&mut self, task: usize, now: Time, deadline_met: bool) {
        let job = {
            let t = &mut self.tasks[task];
            t.phase = JobPhase::Done; // finish/abort may bypass the table
            t.job()
        };
        self.rec
            .record(now, TraceEvent::WindupCompleted { job, deadline_met });
        let requested = self.tasks[task].requested_optional();
        let response = now.saturating_elapsed_since(self.tasks[task].release);
        self.metrics.record_response_time(response);
        // Stream the per-part results straight into the summary — no
        // per-job vector on the hot path.
        let ratio = self.qos.record_job(
            self.tasks[task]
                .parts
                .iter()
                .map(|p| (p.executed, p.outcome.unwrap_or(OptionalOutcome::Discarded))),
            requested,
            deadline_met,
            self.tasks[task].shed,
        );
        self.metrics.record_qos_level(ratio);
        if self.tasks[task].p.tenant.is_some() {
            // The one-shot executors never get here (tenant is None).
            let t = &self.tasks[task];
            self.tenant_qos[t.qos_slot as usize].1.record_job(
                t.parts
                    .iter()
                    .map(|p| (p.executed, p.outcome.unwrap_or(OptionalOutcome::Discarded))),
                requested,
                deadline_met,
                t.shed,
            );
        }
        if self.sup.enabled() {
            if self.tasks[task].overran {
                // Already escalated at budget-cut time.
            } else if deadline_met {
                let resp = self.sup.on_clean_job(task, now);
                if resp.recovered {
                    self.rec.record(now, TraceEvent::DegradedModeExited);
                }
            } else {
                // A miss without a budget overrun (stall-induced, lost
                // timer, overrun into the next release) is still an
                // overload signal.
                let resp = self.sup.on_overrun(task, now);
                if resp.quarantined_task {
                    self.rec.record(now, TraceEvent::TaskQuarantined { job });
                }
                if resp.entered_degraded {
                    self.rec.record(now, TraceEvent::DegradedModeEntered);
                }
            }
        }
        if !deadline_met {
            self.tenant_signal(task, TenantSignal::DeadlineMiss);
        } else if !self.tasks[task].overran {
            self.tenant_signal(task, TenantSignal::CleanJob);
        }
        let t = &mut self.tasks[task];
        t.jobs_done += 1;
        if t.jobs_done >= self.jobs {
            self.live -= 1;
        }
    }

    /// Ends the run at `now`, surrendering everything the engine measured.
    pub fn finish(mut self, now: Time) -> EngineOutput {
        self.take_output(now)
    }

    /// Like [`Engine::finish`], but leaves the engine alive (and drained)
    /// so it can be [`reset`](Engine::reset) and reused for another run.
    pub fn take_output(&mut self, now: Time) -> EngineOutput {
        let faults = self.sup.finish(now);
        EngineOutput {
            qos: std::mem::take(&mut self.qos),
            metrics: std::mem::take(&mut self.metrics),
            trace: self.rec.take_trace(),
            faults,
            tenant_qos: std::mem::take(&mut self.tenant_qos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_task_state_stays_within_232_bytes() {
        // A serving session holds one per task it ever admitted.
        assert!(std::mem::size_of::<TaskState>() <= 232);
    }
}
