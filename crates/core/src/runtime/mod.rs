//! Native POSIX backend: the RT-Seed protocol on real Linux threads.
//!
//! This is the middleware exactly as paper §IV-C describes it — a real-time
//! process per task, one **mandatory thread** executing the mandatory and
//! wind-up parts, and `npᵢ` **parallel optional threads** woken by
//! per-thread condition-variable signals, pinned with `sched_setaffinity`,
//! prioritized with `sched_setscheduler(SCHED_FIFO)` and put to sleep with
//! absolute-deadline waits (`clock_nanosleep(CLOCK_MONOTONIC,
//! TIMER_ABSTIME)` on Linux).
//!
//! Privileged calls are *attempted* and their outcomes recorded in
//! [`RuntimeReport`]; without `CAP_SYS_NICE` the middleware still runs with
//! the default scheduling policy so that the protocol, QoS accounting and
//! overhead measurements all remain exercisable (the latency bounds are of
//! course only real with RT privileges on a multi-core host).
//!
//! **Termination substitution (DESIGN.md):** safe Rust cannot
//! `siglongjmp` across frames, so optional parts terminate cooperatively:
//! user code polls [`OptionalControl::should_stop`] (the paper's "Periodic
//! Check" row) or calls [`OptionalControl::checkpoint`] which raises a
//! panic-unwind caught by the worker (the "try-catch" row, implemented
//! *with* correct re-arming — Rust has no signal mask to corrupt).
//! Requesting [`TerminationMode::SigjmpTimer`] selects the cooperative
//! mechanism and notes the substitution in the report.

pub mod loadgen;
pub mod posix;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use rtseed_model::{JobId, OptionalOutcome, PartId, QosSummary, Span, TaskId, Time};
use rtseed_sim::OverheadKind;

use crate::config::SystemConfig;
use crate::engine::{AfterMandatory, Cursor, Engine, WindupCommand};
use crate::executor::{Outcome, RunConfig};
use crate::obs::{MetricsRegistry, Trace, TraceEvent};
use crate::report::{FaultReport, OverheadReport};
use crate::termination::TerminationMode;

/// Why a native run could not produce an outcome.
///
/// Injected faults and user bugs surface as `Err`, never as a panic in
/// the middleware itself (the scheduler's own threads are panic-free; the
/// only panics in flight are the user's, and those are caught, labelled
/// and returned here).
#[derive(Debug)]
pub enum RuntimeError {
    /// `run` was given the wrong number of [`TaskBody`]s.
    BodyCountMismatch {
        /// Tasks in the configuration.
        expected: usize,
        /// Bodies supplied.
        got: usize,
    },
    /// User code in a mandatory / wind-up body (or the task's coordinator
    /// thread) panicked.
    TaskPanicked {
        /// Index of the offending task.
        task: usize,
        /// The panic message, when it was a string.
        message: String,
    },
    /// User code in a parallel optional part panicked with something other
    /// than a termination checkpoint.
    WorkerPanicked {
        /// Index of the offending task.
        task: usize,
        /// The panic message, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::BodyCountMismatch { expected, got } => write!(
                f,
                "one TaskBody per task is required: {expected} tasks, {got} bodies"
            ),
            RuntimeError::TaskPanicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
            RuntimeError::WorkerPanicked { task, message } => {
                write!(f, "optional worker of task {task} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("(non-string panic payload)")
    }
}

/// Handle given to optional-part closures for cooperative termination.
#[derive(Debug)]
pub struct OptionalControl {
    stop: Arc<AtomicBool>,
    deadline: Instant,
    mode: TerminationMode,
}

/// Panic payload used by [`OptionalControl::checkpoint`] in unwind mode;
/// recognized (and swallowed) by the worker thread.
#[derive(Debug)]
struct TerminationSignal;

impl OptionalControl {
    /// `true` once the optional deadline has passed (or the mandatory
    /// thread has requested termination): cooperative optional parts
    /// should return as soon as possible.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || Instant::now() >= self.deadline
    }

    /// Termination checkpoint: in [`TerminationMode::UnwindCatch`] this
    /// *unwinds* out of the optional part when the deadline has passed
    /// (the `try`-`catch` mechanism of Table I); in the cooperative modes
    /// it is equivalent to asserting on [`OptionalControl::should_stop`]
    /// manually — it returns and the caller keeps the obligation to stop.
    pub fn checkpoint(&self) {
        if matches!(self.mode, TerminationMode::UnwindCatch) && self.should_stop() {
            std::panic::panic_any(TerminationSignal);
        }
    }

    /// The absolute optional deadline of the running job.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

/// Shared optional-part body, callable from any worker thread.
type OptionalBody = Arc<dyn Fn(JobId, PartId, &OptionalControl) + Send + Sync>;

/// The three executable bodies of a parallel-extended imprecise task
/// (paper §IV-C: `execMandatory`, `execOptional`, `execWindup`).
pub struct TaskBody {
    mandatory: Box<dyn FnMut(JobId) + Send>,
    optional: OptionalBody,
    windup: Box<dyn FnMut(JobId) + Send>,
}

impl std::fmt::Debug for TaskBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskBody").finish_non_exhaustive()
    }
}

impl TaskBody {
    /// Builds a task body from the three closures. The optional closure is
    /// shared by all parallel optional threads and must therefore be
    /// `Fn + Send + Sync`; it should poll `ctl.should_stop()` (or call
    /// `ctl.checkpoint()`) regularly.
    pub fn new(
        mandatory: impl FnMut(JobId) + Send + 'static,
        optional: impl Fn(JobId, PartId, &OptionalControl) + Send + Sync + 'static,
        windup: impl FnMut(JobId) + Send + 'static,
    ) -> TaskBody {
        TaskBody {
            mandatory: Box::new(mandatory),
            optional: Arc::new(optional),
            windup: Box::new(windup),
        }
    }

    /// A body that does no real work — useful for protocol tests and
    /// latency measurement.
    pub fn no_op() -> TaskBody {
        TaskBody::new(|_| {}, |_, _, _| {}, |_| {})
    }
}

/// What actually happened with the privileged setup calls.
#[derive(Debug, Clone, Default)]
pub struct RuntimeReport {
    /// Online OS CPUs at run time.
    pub os_cpus: usize,
    /// Threads whose `sched_setscheduler(SCHED_FIFO)` succeeded.
    pub sched_fifo_ok: usize,
    /// Threads whose `sched_setscheduler` failed.
    pub sched_fifo_failed: usize,
    /// First scheduler error observed, if any (typically `EPERM`).
    pub sched_fifo_error: Option<String>,
    /// Threads whose `sched_setaffinity` succeeded.
    pub affinity_ok: usize,
    /// Threads whose `sched_setaffinity` failed.
    pub affinity_failed: usize,
    /// First affinity error observed, if any.
    pub affinity_error: Option<String>,
    /// `true` when `SigjmpTimer` was requested and the cooperative
    /// substitute was used (safe Rust cannot `siglongjmp`).
    pub sigjmp_substituted: bool,
}

impl RuntimeReport {
    fn merge(&mut self, other: &RuntimeReport) {
        self.os_cpus = other.os_cpus.max(self.os_cpus);
        self.sched_fifo_ok += other.sched_fifo_ok;
        self.sched_fifo_failed += other.sched_fifo_failed;
        if self.sched_fifo_error.is_none() {
            self.sched_fifo_error.clone_from(&other.sched_fifo_error);
        }
        self.affinity_ok += other.affinity_ok;
        self.affinity_failed += other.affinity_failed;
        if self.affinity_error.is_none() {
            self.affinity_error.clone_from(&other.affinity_error);
        }
        self.sigjmp_substituted |= other.sigjmp_substituted;
    }
}

/// The native executor: real threads, real time.
#[derive(Debug)]
pub struct NativeExecutor {
    config: SystemConfig,
    run_cfg: RunConfig,
}

impl NativeExecutor {
    /// Creates a native executor for `config`.
    pub fn new(config: SystemConfig, run_cfg: RunConfig) -> NativeExecutor {
        NativeExecutor { config, run_cfg }
    }

    /// Runs every task of the configuration to completion with the given
    /// bodies (one per task, in task order) and returns the measurements.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BodyCountMismatch`] when `bodies.len()`
    /// differs from the task count, and [`RuntimeError::TaskPanicked`] /
    /// [`RuntimeError::WorkerPanicked`] when user code panics with
    /// anything other than a termination checkpoint. All task threads are
    /// joined before an error is returned — nothing keeps running.
    pub fn run(&self, bodies: Vec<TaskBody>) -> Result<Outcome, RuntimeError> {
        if bodies.len() != self.config.set().len() {
            return Err(RuntimeError::BodyCountMismatch {
                expected: self.config.set().len(),
                got: bodies.len(),
            });
        }
        // A single epoch shared by every task thread so per-thread trace
        // timestamps merge onto one axis (each task keeps its own release
        // anchor for scheduling, taken after its setup syscalls).
        let epoch = Instant::now();
        let mut handles = Vec::new();
        for (idx, body) in bodies.into_iter().enumerate() {
            let tcfg = TaskThreadConfig::from_config(&self.config, idx, &self.run_cfg, epoch);
            // Each task thread drives its own single-task protocol engine
            // (fault injection and the supervisor stay sim-only for now).
            let eng = Engine::single_task(&self.config, TaskId(idx as u32), &self.run_cfg);
            handles.push(std::thread::spawn(move || task_main(tcfg, body, eng)));
        }
        let mut qos = QosSummary::new();
        let mut runtime = RuntimeReport::default();
        let mut faults = FaultReport::new();
        let mut metrics = MetricsRegistry::new();
        let mut traces = Vec::new();
        let mut first_err = None;
        // Join every thread even after an error so no task outlives `run`.
        for (task, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(done)) => {
                    qos.merge(&done.qos);
                    runtime.merge(&done.runtime);
                    faults.merge(&done.faults);
                    metrics.merge(&done.metrics);
                    traces.push(done.trace);
                }
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(payload) => {
                    first_err.get_or_insert(RuntimeError::TaskPanicked {
                        task,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(Outcome {
            overheads: OverheadReport::from_metrics(&metrics),
            qos,
            runtime,
            faults,
            metrics,
            trace: Trace::merged(traces),
            ..Outcome::default()
        })
    }
}

/// What a task's coordinator thread needs beyond its own [`Engine`]
/// (which holds the task's placements, priorities and part count): the
/// wall-clock side of the run.
#[derive(Debug, Clone)]
struct TaskThreadConfig {
    period: StdDuration,
    od: StdDuration,
    jobs: u64,
    termination: TerminationMode,
    attempt_rt: bool,
    epoch: Instant,
}

impl TaskThreadConfig {
    fn from_config(
        cfg: &SystemConfig,
        idx: usize,
        run: &RunConfig,
        epoch: Instant,
    ) -> TaskThreadConfig {
        let id = TaskId(idx as u32);
        TaskThreadConfig {
            period: StdDuration::from_nanos(cfg.set().task(id).period().as_nanos()),
            od: StdDuration::from_nanos(cfg.optional_deadline(id).as_nanos()),
            jobs: run.jobs,
            termination: run.termination,
            attempt_rt: run.attempt_rt,
            epoch,
        }
    }

    /// A trace timestamp for `at` on the run-wide axis.
    fn stamp(&self, at: Instant) -> Time {
        Time::from_nanos(
            u64::try_from(at.saturating_duration_since(self.epoch).as_nanos())
                .unwrap_or(u64::MAX),
        )
    }
}

enum Cmd {
    Run(WorkOrder),
    Exit,
}

#[derive(Clone)]
struct WorkOrder {
    job: JobId,
    stop: Arc<AtomicBool>,
    deadline: Instant,
    sync: Arc<JobSync>,
}

struct WorkerSlot {
    cell: Mutex<Vec<Cmd>>,
    cv: Condvar,
}

struct JobSync {
    remaining: Mutex<usize>,
    cv: Condvar,
    results: Mutex<Vec<PartResult>>,
}

#[derive(Debug, Clone, Copy)]
struct PartResult {
    part: PartId,
    started: Instant,
    executed: StdDuration,
    outcome: OptionalOutcome,
}

/// Locks `m`, clearing poisoning: every user panic is caught and reported
/// on its own, and no lock is held across user code.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task's parallel optional threads. Dropping it shuts them down, so no
/// worker outlives its task, also when a mandatory or wind-up body panics
/// and `task_main` unwinds.
struct Workers {
    slots: Vec<Arc<WorkerSlot>>,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    /// Tells every worker to exit and joins them all; returns the message
    /// of the first one that panicked.
    fn shut_down(&mut self) -> Option<String> {
        for slot in self.slots.drain(..) {
            lock(&slot.cell).push(Cmd::Exit);
            slot.cv.notify_one();
        }
        let mut first = None;
        for h in self.handles.drain(..) {
            if let Err(payload) = h.join() {
                first.get_or_insert_with(|| panic_message(payload.as_ref()));
            }
        }
        first
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shut_down();
    }
}

fn span(d: StdDuration) -> Span {
    Span::from_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Sleeps until `target`: on Linux one absolute `clock_nanosleep` on the
/// clock `Instant` reads, so a wake-up that comes late or is interrupted
/// does not carry its lateness into the next wait. A target in the past
/// returns at once; no call returns before its target.
fn sleep_until(target: Instant) {
    #[cfg(target_os = "linux")]
    if posix::sleep_until(target).is_ok() {
        return;
    }
    sleep_in_steps(target);
}

/// The fallback where there is no absolute sleep: relative sleeps until
/// the target has passed.
fn sleep_in_steps(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        std::thread::sleep(target - now);
    }
}

fn try_rt_setup(report: &Mutex<RuntimeReport>, prio: u8, hw: usize, attempt: bool) {
    if !attempt {
        return;
    }
    let os_cpus = posix::online_cpus();
    let mut r = lock(report);
    r.os_cpus = os_cpus;
    match posix::set_sched_fifo(prio) {
        Ok(()) => r.sched_fifo_ok += 1,
        Err(e) => {
            r.sched_fifo_failed += 1;
            if r.sched_fifo_error.is_none() {
                r.sched_fifo_error = Some(e.to_string());
            }
        }
    }
    match posix::set_affinity(hw % os_cpus) {
        Ok(()) => r.affinity_ok += 1,
        Err(e) => {
            r.affinity_failed += 1;
            if r.affinity_error.is_none() {
                r.affinity_error = Some(e.to_string());
            }
        }
    }
}

fn worker_main(
    slot: Arc<WorkerSlot>,
    body: OptionalBody,
    part: PartId,
    mode: TerminationMode,
    fatal: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>>,
) {
    loop {
        let cmd = {
            let mut cell = lock(&slot.cell);
            loop {
                if let Some(cmd) = cell.pop() {
                    break cmd;
                }
                cell = slot.cv.wait(cell).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let order = match cmd {
            Cmd::Exit => return,
            Cmd::Run(order) => order,
        };

        let started = Instant::now();
        let ctl = OptionalControl {
            stop: Arc::clone(&order.stop),
            deadline: order.deadline,
            mode,
        };
        let result = catch_unwind(AssertUnwindSafe(|| (body)(order.job, part, &ctl)));
        let executed = started.elapsed();
        let mut user_panic = None;
        let outcome = match result {
            Ok(()) => {
                if ctl.should_stop() {
                    OptionalOutcome::Terminated
                } else {
                    OptionalOutcome::Completed
                }
            }
            Err(payload) => {
                if payload.is::<TerminationSignal>() {
                    OptionalOutcome::Terminated
                } else {
                    // A real bug in user code: deliver it to the mandatory
                    // thread, but keep the completion protocol intact so
                    // nothing deadlocks.
                    user_panic = Some(payload);
                    OptionalOutcome::Terminated
                }
            }
        };

        lock(&order.sync.results).push(PartResult {
            part,
            started,
            executed,
            outcome,
        });
        // Publish a user panic BEFORE announcing completion, so the
        // mandatory thread is guaranteed to observe it when the job ends.
        let dead = user_panic.is_some();
        if let Some(payload) = user_panic {
            let mut slot = lock(&fatal);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        {
            let mut remaining = lock(&order.sync.remaining);
            *remaining -= 1;
            if *remaining == 0 {
                order.sync.cv.notify_all();
            }
        }
        if dead {
            return; // this worker is dead; the run aborts after the job
        }
    }
}

struct TaskMainOk {
    qos: QosSummary,
    runtime: RuntimeReport,
    faults: FaultReport,
    trace: Trace,
    metrics: MetricsRegistry,
}

#[allow(clippy::too_many_lines)]
fn task_main(
    cfg: TaskThreadConfig,
    body: TaskBody,
    mut eng: Engine,
) -> Result<TaskMainOk, RuntimeError> {
    let TaskBody {
        mut mandatory,
        optional,
        mut windup,
    } = body;
    // The engine holds this thread's one task at index 0. Its threads are
    // pinned once, before the first release, to the primary host CPU.
    let task = eng.job(0).task.index();
    let np = eng.part_count(0);
    let mandatory_hw = eng.mandatory_hw(0);
    let fatal: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
        Arc::new(Mutex::new(None));
    let report = Arc::new(Mutex::new(RuntimeReport {
        os_cpus: posix::online_cpus(),
        sigjmp_substituted: matches!(cfg.termination, TerminationMode::SigjmpTimer),
        ..RuntimeReport::default()
    }));

    // Mandatory thread setup (this thread).
    try_rt_setup(&report, eng.mand_prio(0).level(), mandatory_hw, cfg.attempt_rt);

    // Spawn the parallel optional threads, pinned per the assignment
    // policy (paper: they migrate to their processors *before* execution).
    let slots: Vec<Arc<WorkerSlot>> = (0..np)
        .map(|_| {
            Arc::new(WorkerSlot {
                cell: Mutex::new(Vec::new()),
                cv: Condvar::new(),
            })
        })
        .collect();
    let handles = (0..np)
        .map(|k| {
            let slot = Arc::clone(&slots[k]);
            let body = Arc::clone(&optional);
            let report = Arc::clone(&report);
            let hw = eng.placement(0, k);
            let prio = eng.opt_prio(0).level();
            let attempt = cfg.attempt_rt;
            let mode = cfg.termination;
            let fatal = Arc::clone(&fatal);
            std::thread::spawn(move || {
                try_rt_setup(&report, prio, hw, attempt);
                worker_main(slot, body, PartId(k as u32), mode, fatal);
            })
        })
        .collect();
    let mut workers = Workers { slots, handles };

    // Overruns detected and degraded jobs are driver observations; the
    // engine's own report (empty here — no fault plan, supervisor off) is
    // merged in at the end.
    let mut faults = FaultReport::new();

    let anchor = Instant::now();
    let mut aborted = None;
    for seq in 0..cfg.jobs {
        let release = anchor + cfg.period * u32::try_from(seq).unwrap_or(u32::MAX);
        sleep_until(release);
        let rel = eng.release(0, cfg.stamp(release));
        let job = rel.job;
        // Δm: release → beginning of the mandatory part.
        let mand_start = Instant::now();
        eng.sample(
            OverheadKind::BeginMandatory,
            span(mand_start.saturating_duration_since(release)),
        );
        eng.on_dispatch(0, Cursor::Mandatory, mandatory_hw, cfg.stamp(mand_start));

        mandatory(job);
        let mandatory_done = Instant::now();
        let od_instant = release + cfg.od;
        let mut run_windup = false;

        match eng.mandatory_completed(0, cfg.stamp(mandatory_done)) {
            AfterMandatory::Windup(WindupCommand::Finished { met }) => {
                // No optional parts and no wind-up demand: the engine
                // closed the job at mandatory completion.
                if !met {
                    faults.overruns_detected += 1;
                }
            }
            AfterMandatory::Windup(WindupCommand::AlreadyScheduled) => {}
            AfterMandatory::Windup(WindupCommand::At { .. }) => {
                // Either np = 0 or the mandatory part overran OD (parts
                // discarded by the engine). The wind-up is released at the
                // optional deadline, never before (§IV-B).
                sleep_until(od_instant);
                run_windup = true;
            }
            AfterMandatory::Signal { np } => {
                let stop = Arc::new(AtomicBool::new(false));
                let sync = Arc::new(JobSync {
                    remaining: Mutex::new(np),
                    cv: Condvar::new(),
                    results: Mutex::new(Vec::with_capacity(np)),
                });

                // Δb: the signal loop waking every optional thread.
                let signal_start = Instant::now();
                for slot in &workers.slots {
                    lock(&slot.cell).push(Cmd::Run(WorkOrder {
                        job,
                        stop: Arc::clone(&stop),
                        deadline: od_instant,
                        sync: Arc::clone(&sync),
                    }));
                    slot.cv.notify_one();
                }
                let signal_end = Instant::now();
                eng.sample(OverheadKind::BeginOptional, span(signal_end - signal_start));
                // On this backend the deadline wait below *is* the OD
                // timer; arming it records the TimerArmed event.
                let _ = eng.arm_timer(0, cfg.stamp(signal_start));

                // Wait for completion or the optional deadline, whichever
                // is first (the paper's pthread_cond_wait / one-shot timer
                // pair).
                {
                    let mut remaining = lock(&sync.remaining);
                    while *remaining > 0 {
                        let now = Instant::now();
                        if now >= od_instant {
                            break;
                        }
                        remaining = sync
                            .cv
                            .wait_timeout(remaining, od_instant - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                    if *remaining > 0 {
                        stop.store(true, Ordering::Relaxed);
                    }
                    while *remaining > 0 {
                        remaining = sync
                            .cv
                            .wait(remaining)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
                let all_ended = Instant::now();

                let results = lock(&sync.results);
                // Δe: optional deadline → all parts ended, sampled whenever
                // any part was actually terminated (whether the mandatory
                // thread set the stop flag or the worker observed the
                // deadline itself — both are the paper's timer firing).
                if results
                    .iter()
                    .any(|r| r.outcome == OptionalOutcome::Terminated)
                {
                    eng.sample(
                        OverheadKind::EndOptional,
                        span(all_ended.saturating_duration_since(od_instant)),
                    );
                    eng.trace(
                        cfg.stamp(od_instant),
                        TraceEvent::OptionalDeadlineExpired { job },
                    );
                }
                // Δs: signal end → first optional part actually running.
                if let Some(first_start) = results.iter().map(|r| r.started).min() {
                    eng.sample(
                        OverheadKind::SwitchToOptional,
                        span(first_start.saturating_duration_since(signal_end)),
                    );
                }
                for r in results.iter() {
                    eng.part_observed(
                        0,
                        r.part.index(),
                        cfg.stamp(r.started),
                        span(r.executed),
                        r.outcome,
                    );
                }
                drop(results);

                // Early completers sleep in the SQ until OD (§IV-B).
                sleep_until(od_instant);
                run_windup = true;
            }
        }

        if run_windup && eng.windup_ready(0, rel.seq, cfg.stamp(Instant::now())) {
            windup(job);
            let met = eng.windup_completed(0, cfg.stamp(Instant::now()));
            if !met {
                faults.overruns_detected += 1;
            }
        }
        if np > 0 && eng.parts_degraded(0) {
            faults.jobs_degraded += 1;
        }

        // A user panic in an optional part aborts the run after the job's
        // bookkeeping so the caller sees both the records and the panic.
        if let Some(payload) = lock(&fatal).take() {
            aborted = Some(payload);
            break;
        }
    }

    // Join every worker before reporting any error.
    if let Some(message) = workers.shut_down() {
        return Err(RuntimeError::WorkerPanicked { task, message });
    }
    if let Some(payload) = aborted {
        return Err(RuntimeError::WorkerPanicked {
            task,
            message: panic_message(payload.as_ref()),
        });
    }

    let report = Arc::try_unwrap(report)
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .unwrap_or_else(|arc| lock(&arc).clone());
    let out = eng.finish(cfg.stamp(Instant::now()));
    let mut faults_total = out.faults;
    faults_total.merge(&faults);
    Ok(TaskMainOk {
        qos: out.qos,
        runtime: report,
        faults: faults_total,
        trace: out.trace,
        metrics: out.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AssignmentPolicy;
    use rtseed_model::{TaskSet, TaskSpec, Topology};

    /// A short task: T = 60 ms, m = 2 ms, w = 2 ms, np optional parts of
    /// nominally 20 ms.
    fn quick_config(np: usize) -> SystemConfig {
        let t = TaskSpec::builder("native-test")
            .period(Span::from_millis(60))
            .mandatory(Span::from_millis(2))
            .windup(Span::from_millis(2))
            .optional_parts(np, Span::from_millis(20))
            .build()
            .unwrap();
        SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap()
    }

    fn run_cfg(jobs: u64) -> RunConfig {
        RunConfig {
            jobs,
            termination: TerminationMode::PeriodicCheck {
                interval: Span::from_millis(1),
            },
            attempt_rt: false,
            ..RunConfig::default()
        }
    }

    #[test]
    fn sleep_until_a_past_target_returns_at_once() {
        let past = Instant::now();
        std::thread::sleep(StdDuration::from_millis(1));
        let t0 = Instant::now();
        sleep_until(past);
        sleep_until(t0);
        assert!(t0.elapsed() < StdDuration::from_millis(50));
    }

    #[test]
    fn sleep_until_never_returns_before_its_target() {
        for micros in [1, 50, 300, 2_000] {
            let target = Instant::now() + StdDuration::from_micros(micros);
            sleep_until(target);
            assert!(Instant::now() >= target, "woke before a {micros} µs target");
            let target = Instant::now() + StdDuration::from_micros(micros);
            sleep_in_steps(target);
            assert!(
                Instant::now() >= target,
                "stepped before a {micros} µs target"
            );
        }
    }

    /// Optional body that spins in 200 µs naps until told to stop.
    fn overrunning_optional() -> impl Fn(JobId, PartId, &OptionalControl) + Send + Sync {
        |_, _, ctl: &OptionalControl| {
            while !ctl.should_stop() {
                std::thread::sleep(StdDuration::from_micros(200));
            }
        }
    }

    #[test]
    fn protocol_runs_and_terminates_overrunning_parts() {
        let cfg = quick_config(2);
        let exec = NativeExecutor::new(cfg, run_cfg(3));
        let out = exec
            .run(vec![TaskBody::new(
                |_| std::thread::sleep(StdDuration::from_millis(1)),
                overrunning_optional(),
                |_| {},
            )])
            .expect("run");
        assert_eq!(out.qos.jobs(), 3);
        // Terminated parts are observed overload: every job degraded.
        assert_eq!(out.faults.jobs_degraded, 3);
        let (completed, terminated, discarded) = out.qos.outcome_totals();
        assert_eq!(completed, 0);
        assert_eq!(terminated, 2 * 3);
        assert_eq!(discarded, 0);
        // Overheads were sampled.
        assert_eq!(out.overheads.count(OverheadKind::BeginMandatory), 3);
        assert_eq!(out.overheads.count(OverheadKind::BeginOptional), 3);
        assert_eq!(out.overheads.count(OverheadKind::EndOptional), 3);
        assert_eq!(out.overheads.count(OverheadKind::SwitchToOptional), 3);
    }

    #[test]
    fn quick_parts_complete() {
        let cfg = quick_config(2);
        let exec = NativeExecutor::new(cfg, run_cfg(2));
        let out = exec
            .run(vec![TaskBody::new(
                |_| {},
                |_, _, _| std::thread::sleep(StdDuration::from_millis(2)),
                |_| {},
            )])
            .expect("run");
        let (completed, terminated, discarded) = out.qos.outcome_totals();
        assert_eq!(completed, 4, "t/d = {terminated}/{discarded}");
        assert_eq!(out.faults.jobs_degraded, 0);
        // Completing early means no Δe samples.
        assert_eq!(out.overheads.count(OverheadKind::EndOptional), 0);
    }

    #[test]
    fn unwind_mode_cuts_parts_via_checkpoint() {
        let cfg = quick_config(2);
        let exec = NativeExecutor::new(
            cfg,
            RunConfig {
                jobs: 2,
                termination: TerminationMode::UnwindCatch,
                attempt_rt: false,
                ..RunConfig::default()
            },
        );
        let out = exec
            .run(vec![TaskBody::new(
                |_| {},
                |_, _, ctl: &OptionalControl| loop {
                    ctl.checkpoint();
                    std::thread::sleep(StdDuration::from_micros(200));
                },
                |_| {},
            )])
            .expect("run");
        let (_, terminated, _) = out.qos.outcome_totals();
        assert_eq!(terminated, 4);
        // Unlike the paper's C++ try-catch, the Rust unwind path re-arms
        // cleanly: *both* jobs terminated their parts (tolerating one CFS
        // hiccup on loaded CI machines).
        assert!(out.qos.deadline_misses() <= 1, "{}", out.qos);
    }

    #[test]
    fn user_panic_surfaces_as_typed_error() {
        let cfg = quick_config(1);
        let exec = NativeExecutor::new(cfg, run_cfg(1));
        let err = exec
            .run(vec![TaskBody::new(
                |_| {},
                |_, _, _| panic!("user bug"),
                |_| {},
            )])
            .unwrap_err();
        match &err {
            RuntimeError::WorkerPanicked { task, message } => {
                assert_eq!(*task, 0);
                assert_eq!(message, "user bug");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("user bug"), "{err}");
    }

    /// Runs one job of a three-part task whose mandatory or wind-up body
    /// panics, and checks that the error names it and that the optional
    /// threads, which hold the optional body, are gone when `run` returns.
    fn assert_a_panic_stops_every_worker(
        mandatory: impl FnMut(JobId) + Send + 'static,
        windup: impl FnMut(JobId) + Send + 'static,
        expected: &str,
    ) {
        let probe = Arc::new(());
        let held = Arc::clone(&probe);
        let err = NativeExecutor::new(quick_config(3), run_cfg(1))
            .run(vec![TaskBody::new(
                mandatory,
                move |_, _, _| {
                    let _ = &held;
                },
                windup,
            )])
            .unwrap_err();
        match &err {
            RuntimeError::TaskPanicked { task, message } => {
                assert_eq!(*task, 0);
                assert_eq!(message, expected);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert_eq!(Arc::strong_count(&probe), 1, "a worker outlived `run`");
    }

    #[test]
    fn a_mandatory_panic_stops_every_worker() {
        assert_a_panic_stops_every_worker(|_| panic!("mandatory bug"), |_| {}, "mandatory bug");
    }

    #[test]
    fn a_windup_panic_stops_every_worker() {
        assert_a_panic_stops_every_worker(|_| {}, |_| panic!("wind-up bug"), "wind-up bug");
    }

    #[test]
    fn no_op_body_with_no_parts() {
        let t = TaskSpec::builder("plain")
            .period(Span::from_millis(20))
            .mandatory(Span::from_millis(1))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let out = NativeExecutor::new(cfg, run_cfg(3))
            .run(vec![TaskBody::no_op()])
            .expect("run");
        assert_eq!(out.qos.jobs(), 3);
        assert_eq!(out.qos.deadline_misses(), 0);
        assert!((out.qos.aggregate_ratio() - 1.0).abs() < 1e-12);
        assert!(out.faults.is_clean(), "{}", out.faults);
    }

    #[test]
    fn runtime_report_records_outcomes() {
        let cfg = quick_config(1);
        let exec = NativeExecutor::new(
            cfg,
            RunConfig {
                jobs: 1,
                termination: TerminationMode::SigjmpTimer,
                attempt_rt: true,
                ..RunConfig::default()
            },
        );
        let out = exec
            .run(vec![TaskBody::new(|_| {}, |_, _, _| {}, |_| {})])
            .expect("run");
        let r = &out.runtime;
        assert!(r.os_cpus >= 1);
        // Substitution is reported for SigjmpTimer.
        assert!(r.sigjmp_substituted);
        // Two threads attempted setup (mandatory + 1 worker): each call
        // either succeeded or failed, nothing silently dropped.
        assert_eq!(r.sched_fifo_ok + r.sched_fifo_failed, 2);
        assert_eq!(r.affinity_ok + r.affinity_failed, 2);
    }

    #[test]
    fn body_count_mismatch_is_a_typed_error() {
        let exec = NativeExecutor::new(quick_config(1), run_cfg(1));
        let err = exec.run(vec![]).unwrap_err();
        match err {
            RuntimeError::BodyCountMismatch { expected, got } => {
                assert_eq!((expected, got), (1, 0));
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn trace_covers_the_native_protocol() {
        let cfg = quick_config(1);
        let mut run = run_cfg(2);
        run.trace = crate::obs::TraceConfig::enabled();
        let out = NativeExecutor::new(cfg, run)
            .run(vec![TaskBody::no_op()])
            .expect("run");
        let releases = out
            .trace
            .count(|e| matches!(e, TraceEvent::JobReleased { .. }));
        assert_eq!(releases, 2);
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::WindupCompleted { .. })),
            2
        );
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::OptionalStarted { .. })),
            2
        );
        // The merged trace is on one time axis, in order.
        assert!(out.trace.events().windows(2).all(|w| w[0].0 <= w[1].0));
        // Metrics accumulate regardless of tracing.
        assert_eq!(out.metrics.response_time().count(), 2);
        assert_eq!(out.metrics.qos_level().count(), 2);
    }

    #[test]
    fn untraced_run_carries_an_empty_trace() {
        let out = NativeExecutor::new(quick_config(1), run_cfg(1))
            .run(vec![TaskBody::no_op()])
            .expect("run");
        assert!(out.trace.is_empty());
        // ... but the metrics registry still fills.
        assert_eq!(out.metrics.response_time().count(), 1);
    }

    #[test]
    fn deadlines_met_under_nominal_load() {
        let cfg = quick_config(2);
        let out = NativeExecutor::new(cfg, run_cfg(3))
            .run(vec![TaskBody::new(|_| {}, overrunning_optional(), |_| {})])
            .expect("run");
        // 2 ms of wind-up budget against ~µs-scale actual work: even
        // unprivileged scheduling meets a 60 ms deadline — tolerate one
        // CFS hiccup on loaded CI machines.
        assert!(out.qos.deadline_misses() <= 1, "{}", out.qos);
    }
}
