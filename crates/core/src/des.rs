//! The one discrete-event driver under every simulated front-end.
//!
//! [`Driver`] owns the simulated clock, the event queue, the shared
//! [`Engine`], one [`Cpu`] slot per hardware thread and the event handlers
//! that map the engine's typed commands onto them: release (with the
//! retry-then-abort rule for a job still in flight at its next release),
//! completion, the Δb/Δs signalling hand-off, the optional-deadline
//! termination loop, wind-up release, fault-plan stall windows and job
//! abort. A front-end — [`SimExecutor`](crate::exec_sim::SimExecutor),
//! [`GlobalExecutor`](crate::exec_global::GlobalExecutor), the serving
//! layer's [`SessionManager`](crate::serve::SessionManager) — starts job
//! streams, steps events and reads the engine; it defines no event and no
//! handler of its own.
//!
//! What differs between partitioned and global dispatch is the
//! [`Substrate`]: how a part becomes runnable, how it is stopped, and who
//! runs next. [`Partitioned`] (here) pins every part to its hardware
//! thread's SCHED_FIFO queue and charges the calibrated [`OverheadModel`]
//! in protocol order; the global substrate lives in
//! [`exec_global`](crate::exec_global). The parameter is monomorphised:
//! nothing on the event path is dispatched dynamically.

use rtseed_model::{HwThreadId, Priority, Span, Time, Topology};
use rtseed_sim::{EventQueue, FaultPlan, FifoReadyQueue, OverheadKind, OverheadModel};

use crate::config::SystemConfig;
use crate::engine::{
    AfterMandatory, Cursor, Engine, EngineOutput, OdAction, StopTarget, WindupCommand,
};
use crate::executor::RunConfig;
use crate::obs::{QueueBand, QueueOp, TraceEvent};

/// One schedulable part of a task's current job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Work {
    pub(crate) task: usize,
    pub(crate) cursor: Cursor,
}

#[derive(Debug)]
enum Event {
    Release { task: usize, retried: bool },
    Ready { work: Work },
    Complete { hw: usize, gen: u64 },
    OdExpire { task: usize, seq: u64 },
    WindupReady { task: usize, seq: u64 },
    StallStart { hw: usize, duration: Span },
    StallEnd { hw: usize },
}

/// The part a hardware thread is executing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Running {
    pub(crate) work: Work,
    pub(crate) prio: Priority,
    since: Time,
    gen: u64,
}

/// One hardware thread: the parts pinned to it that wait, and what it runs.
#[derive(Debug, Default)]
pub(crate) struct Cpu {
    pub(crate) queue: FifoReadyQueue<Work>,
    pub(crate) running: Option<Running>,
    /// Depth of overlapping fault-plan stall windows; > 0 means the
    /// hardware thread executes nothing.
    pub(crate) stalled: u32,
}

/// Reusable per-worker scratch for [`SimExecutor::run_in`] and for serving
/// sessions ([`SessionManager::new_in`], where it goes by the name
/// `ServeArena`).
///
/// Holds everything a run allocates on its hot path — the event queue
/// (heap, payload slab and the run buffers ascending pushes fill), the
/// per-CPU ready queues, the Δb signal buffer and a recycled
/// [`Engine`] (task vector, supervisor, recorder ring) — so a worker pool
/// can execute thousands of runs, and a churn-replay worker thousands of
/// sessions, with a handful of allocations per worker instead of a handful
/// per run. One arena serves both front-ends in any order.
///
/// The arena carries **no cross-run state**: every buffer is cleared (or
/// rebuilt from the new configuration) before the next run touches it,
/// whatever the last run left queued (a session can end mid-Δb, with a
/// signalling loop's run still pending), so a run over a hot arena is
/// byte-identical to a cold one — a contract the differential tests pin
/// down.
///
/// [`SimExecutor::run_in`]: crate::exec_sim::SimExecutor::run_in
/// [`SessionManager::new_in`]: crate::serve::SessionManager::new_in
#[derive(Debug, Default)]
pub struct SimArena {
    events: EventQueue<Event>,
    cpus: Vec<Cpu>,
    signal_scratch: Vec<Time>,
    pub(crate) engine: Option<Engine>,
}

impl SimArena {
    /// An empty arena; buffers grow to each run's high-water mark and are
    /// kept for the next run.
    pub fn new() -> SimArena {
        SimArena::default()
    }
}

/// The dispatch mechanism under a [`Driver`].
///
/// A substrate that models no latency for a step pushes no event and takes
/// no overhead sample for it: "costless" is the absence of the mechanism,
/// not a zero-length instance of it.
pub(crate) trait Substrate: Sized {
    /// `task`'s job was just released: its mandatory part wakes up.
    fn wake_mandatory(d: &mut Driver<Self>, task: usize);
    /// The mandatory part finished: signal `np` optional parts.
    fn signal_optionals(d: &mut Driver<Self>, task: usize, np: usize);
    /// `work` is runnable now: put it on its ready queue.
    fn ready(d: &mut Driver<Self>, work: Work);
    /// The optional-deadline handler ends the part `work` at `target`.
    fn terminate(d: &mut Driver<Self>, work: Work, target: StopTarget);
    /// Takes `work` (queued at `prio`, pinned parts on `hw`) off the
    /// machine, wherever it is, because its job is being aborted.
    fn stop(d: &mut Driver<Self>, hw: usize, work: Work, prio: Priority);
    /// `r` lost `hw` with demand left: back to the head of its level.
    fn requeue(d: &mut Driver<Self>, hw: usize, r: Running);
    /// `hw` was vacated or its stall window closed: decide what runs.
    fn dispatch(d: &mut Driver<Self>, hw: usize);
    /// A handler queued or stopped work without dispatching; a substrate
    /// that dispatches once per event does so here.
    fn settle(_d: &mut Driver<Self>) {}
}

/// Clock, event queue, engine and per-CPU run state, driven one event at
/// a time (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct Driver<S> {
    pub(crate) now: Time,
    pub(crate) eng: Engine,
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) sub: S,
    pub(crate) events_processed: u64,
    events: EventQueue<Event>,
    gen: u64,
}

impl<S: Substrate> Driver<S> {
    /// A driver at `t = 0` for `hw_threads` processors over `arena`'s
    /// recycled event queue and ready queues.
    pub(crate) fn new_in(arena: &mut SimArena, hw_threads: usize, eng: Engine, sub: S) -> Self {
        let mut events = std::mem::take(&mut arena.events);
        events.clear();
        let mut cpus = std::mem::take(&mut arena.cpus);
        for cpu in &mut cpus {
            cpu.queue.clear();
            cpu.running = None;
            cpu.stalled = 0;
        }
        cpus.resize_with(hw_threads, Cpu::default);
        Driver {
            now: Time::ZERO,
            eng,
            cpus,
            sub,
            events_processed: 0,
            events,
            gen: 0,
        }
    }

    /// Starts `task`'s periodic job stream with a first release at `at`.
    pub(crate) fn start_task(&mut self, task: usize, at: Time) {
        self.events.push(
            at,
            Event::Release {
                task,
                retried: false,
            },
        );
    }

    /// Queues the fault plan's CPU stall windows. They enter the same
    /// event queue as everything else, so a faulted run replays exactly
    /// like a healthy one.
    pub(crate) fn plan_stalls(&mut self, plan: &FaultPlan) {
        for stall in plan.stalls() {
            let hw = stall.hw as usize;
            if hw >= self.cpus.len() {
                continue;
            }
            self.events.push(
                stall.at,
                Event::StallStart {
                    hw,
                    duration: stall.duration,
                },
            );
            self.events
                .push(stall.at + stall.duration, Event::StallEnd { hw });
        }
    }

    /// Runs the closed task set the engine was built from to completion:
    /// every task releases at `t = 0`, then the stall windows are queued
    /// (the queue is time-then-FIFO, so this order is observable).
    pub(crate) fn run_closed(&mut self, cfg: &SystemConfig, run: &RunConfig) {
        if run.jobs == 0 {
            return;
        }
        // One decision event per task, ahead of the first release, records
        // where the assignment policy placed its optional parts (Fig. 8).
        for task in 0..self.eng.task_count() {
            self.eng.trace_policy_decision(task, cfg.policy(), Time::ZERO);
            self.start_task(task, Time::ZERO);
        }
        self.plan_stalls(&run.fault_plan);
        while self.eng.has_live_tasks() && self.step() {}
    }

    /// When the next event is due, if any is queued.
    pub(crate) fn next_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Advances the clock to the next event and handles it; `false` when
    /// the queue is empty.
    pub(crate) fn step(&mut self) -> bool {
        let Some((at, event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event time went backwards");
        self.now = at;
        self.events_processed += 1;
        match event {
            Event::Release { task, retried } => self.on_release(task, retried),
            Event::Ready { work } => self.on_ready(work),
            Event::Complete { hw, gen } => self.on_complete(hw, gen),
            Event::OdExpire { task, seq } => self.on_od_expire(task, seq),
            Event::WindupReady { task, seq } => self.on_windup_ready(task, seq),
            Event::StallStart { hw, duration } => self.on_stall_start(hw, duration),
            Event::StallEnd { hw } => self.on_stall_end(hw),
        }
        true
    }

    // ----- event handlers -------------------------------------------------

    fn on_release(&mut self, task: usize, retried: bool) {
        // A job may complete at the very instant of the next release; the
        // completion event is already queued ahead of us (FIFO), so requeue
        // the release once to let it land before declaring an overrun.
        if self.eng.job_in_flight(task) && !retried {
            self.events.push(
                self.now,
                Event::Release {
                    task,
                    retried: true,
                },
            );
            return;
        }
        // Abort a job that overran into its next release (deadline missed
        // hard): finalize it so the new job starts clean.
        if self.eng.jobs_done(task) > 0 || self.eng.job_in_flight(task) {
            if self.eng.job_in_flight(task) {
                self.abort_job(task);
            }
            if self.eng.task_retired(task) {
                return; // quota exhausted or the tenant departed
            }
        }

        let rel = self.eng.release(task, self.now);
        S::wake_mandatory(self, task);

        // The optional-deadline timer (armed per job; the handler no-ops if
        // the Table I signal-mask defect broke the timer). The fault plan
        // may delay the one-shot or lose it outright.
        if rel.has_parts {
            if let Some(at) = self.eng.arm_timer(task, self.now) {
                self.events.push(at, Event::OdExpire { task, seq: rel.seq });
            }
        }

        // Periodic releases continue while jobs remain.
        if let Some(at) = rel.next_release {
            self.start_task(task, at);
        }
        S::settle(self);
    }

    fn on_ready(&mut self, work: Work) {
        // The task may have been removed between signalling and readiness.
        if self.eng.task_retired(work.task) && !self.eng.job_in_flight(work.task) {
            return;
        }
        S::ready(self, work);
        S::settle(self);
    }

    fn on_complete(&mut self, hw: usize, gen: u64) {
        let Some(running) = self.cpus[hw].running else {
            return;
        };
        if running.gen != gen {
            return; // stale completion (preempted or terminated meanwhile)
        }
        self.cpus[hw].running = None;
        let work = running.work;
        if matches!(work.cursor, Cursor::Mandatory | Cursor::Windup) {
            // Bank what actually ran; the engine cuts the part at its
            // supervisor budget if demand remains.
            let ran = self.now.saturating_elapsed_since(running.since);
            self.eng.bank(work.task, work.cursor, ran);
            self.eng.cut_if_over_budget(work.task, work.cursor, self.now);
        }
        match work.cursor {
            Cursor::Mandatory => match self.eng.mandatory_completed(work.task, self.now) {
                AfterMandatory::Windup(cmd) => self.apply_windup(work.task, cmd),
                AfterMandatory::Signal { np } => S::signal_optionals(self, work.task, np),
            },
            Cursor::Optional(k) => {
                if let Some(cmd) = self.eng.optional_completed(work.task, k, self.now) {
                    self.apply_windup(work.task, cmd);
                }
            }
            Cursor::Windup => {
                self.eng.windup_completed(work.task, self.now);
            }
        }
        S::dispatch(self, hw);
    }

    /// Maps a wind-up command onto the event queue (a `Finished` or
    /// `AlreadyScheduled` command needs no mechanism).
    fn apply_windup(&mut self, task: usize, cmd: WindupCommand) {
        if let WindupCommand::At { at, seq } = cmd {
            self.events.push(at, Event::WindupReady { task, seq });
        }
    }

    fn on_od_expire(&mut self, task: usize, seq: u64) {
        match self.eng.od_expired(task, seq, self.now) {
            OdAction::Stale | OdAction::Handled => {}
            OdAction::Terminate { np } => {
                // Terminate every un-ended part, in part order. Termination
                // handling is serialized — the O(npᵢ) mechanism behind
                // Fig. 13.
                for k in 0..np {
                    let Some(target) = self.eng.plan_terminate(task, k) else {
                        continue;
                    };
                    let work = Work {
                        task,
                        cursor: Cursor::Optional(k as u32),
                    };
                    S::terminate(self, work, target);
                    self.eng.commit_terminate(task, k, self.now);
                }
                let cmd = self.eng.finish_termination(task, self.now);
                self.apply_windup(task, cmd);
                S::settle(self);
            }
        }
    }

    fn on_windup_ready(&mut self, task: usize, seq: u64) {
        if self.eng.windup_ready(task, seq, self.now) {
            self.on_ready(Work {
                task,
                cursor: Cursor::Windup,
            });
        }
    }

    fn on_stall_start(&mut self, hw: usize, duration: Span) {
        self.eng.stall_started(hw, duration, self.now);
        self.cpus[hw].stalled += 1;
        // Whatever was running loses the processor; its banked progress is
        // kept and it resumes at the head of its priority level.
        if let Some(r) = self.vacate(hw) {
            S::requeue(self, hw, r);
            S::settle(self);
        }
    }

    fn on_stall_end(&mut self, hw: usize) {
        self.cpus[hw].stalled = self.cpus[hw].stalled.saturating_sub(1);
        if self.cpus[hw].stalled == 0 {
            S::dispatch(self, hw);
        }
    }

    /// Forcibly ends `task`'s job in flight: at its next release (deadline
    /// missed hard) or because its tenant leaves.
    pub(crate) fn abort_job(&mut self, task: usize) {
        // Scrub real-time work (the wind-up may live on a federated
        // task's granted core rather than the mandatory CPU).
        let mand_hw = self.eng.mandatory_hw(task);
        let windup_hw = self.eng.windup_hw(task);
        let mand_prio = self.eng.mand_prio(task);
        for (hw, cursor) in [(mand_hw, Cursor::Mandatory), (windup_hw, Cursor::Windup)] {
            S::stop(self, hw, Work { task, cursor }, mand_prio);
        }
        // Scrub optional work and finalize outcomes.
        let opt_prio = self.eng.opt_prio(task);
        for k in 0..self.eng.part_count(task) {
            if self.eng.part_ended(task, k) {
                continue;
            }
            let work = Work {
                task,
                cursor: Cursor::Optional(k as u32),
            };
            S::stop(self, self.eng.placement(task, k), work, opt_prio);
            self.eng.abort_part(task, k, self.now);
        }
        self.eng.finish_abort(task, self.now);
        S::settle(self);
    }

    // ----- what every substrate does to a processor -----------------------

    /// Takes whatever runs on `hw` off it, banking the execution it
    /// achieved up to now.
    pub(crate) fn vacate(&mut self, hw: usize) -> Option<Running> {
        let r = self.cpus[hw].running.take()?;
        let ran = self.now.saturating_elapsed_since(r.since);
        self.eng.bank(r.work.task, r.work.cursor, ran);
        Some(r)
    }

    /// Starts `work` on the idle `hw`; its completion is due once the
    /// demand the engine reports has run.
    pub(crate) fn start(&mut self, hw: usize, work: Work, prio: Priority) {
        let remaining = self.eng.on_dispatch(work.task, work.cursor, hw, self.now);
        self.gen += 1;
        let gen = self.gen;
        self.cpus[hw].running = Some(Running {
            work,
            prio,
            since: self.now,
            gen,
        });
        self.events.push(self.now + remaining, Event::Complete { hw, gen });
    }

    /// Records a ready-queue operation on `task`'s current job (`hw` is
    /// `None` for a queue bound to no hardware thread). Hot path: the
    /// event is built only when someone is recording.
    pub(crate) fn trace_queue(
        &mut self,
        op: QueueOp,
        prio: Priority,
        task: usize,
        hw: Option<usize>,
    ) {
        if self.eng.tracing() {
            let job = self.eng.job(task);
            self.eng.trace(
                self.now,
                TraceEvent::Queue {
                    band: QueueBand::of(prio),
                    op,
                    job,
                    hw: hw.map(|hw| HwThreadId(hw as u32)),
                },
            );
        }
    }
}

/// P-RMWP dispatch: every part is pinned — real-time parts to the job's
/// bound hardware thread, optional parts to their policy placement — and
/// each hardware thread runs its own preemptive SCHED_FIFO queue. Wake-up
/// (Δm), signalling (Δb), the mandatory→optional switch (Δs) and part
/// termination (Δe) cost what the calibrated [`OverheadModel`] says, its
/// RNG stream sampled in exactly the order the protocol performs the
/// underlying actions.
#[derive(Debug)]
pub(crate) struct Partitioned {
    model: OverheadModel,
    /// Reused buffer for per-part signal ready-times (Δb loop): cleared
    /// and refilled each mandatory completion instead of reallocated.
    signal_scratch: Vec<Time>,
}

impl Driver<Partitioned> {
    /// A partitioned driver on `topology`, overheads seeded from `run`,
    /// over `arena`'s recycled buffers.
    pub(crate) fn partitioned_in(
        arena: &mut SimArena,
        topology: Topology,
        run: &RunConfig,
        eng: Engine,
    ) -> Self {
        let mut signal_scratch = std::mem::take(&mut arena.signal_scratch);
        signal_scratch.clear();
        let sub = Partitioned {
            model: OverheadModel::new(run.calibration, topology, run.load, run.seed),
            signal_scratch,
        };
        Driver::new_in(arena, topology.hw_threads() as usize, eng, sub)
    }

    /// Ends the run: surrenders what the engine measured and the event
    /// count, and parks every buffer (and the engine) in `arena` for the
    /// next run.
    pub(crate) fn finish(self, arena: Option<&mut SimArena>) -> (EngineOutput, u64) {
        let Driver {
            mut eng,
            now,
            events,
            cpus,
            sub,
            events_processed,
            ..
        } = self;
        let out = eng.take_output(now);
        if let Some(arena) = arena {
            arena.events = events;
            arena.cpus = cpus;
            arena.signal_scratch = sub.signal_scratch;
            arena.engine = Some(eng);
        }
        (out, events_processed)
    }
}

impl Substrate for Partitioned {
    fn wake_mandatory(d: &mut Driver<Self>, task: usize) {
        // Δm: wake-up latency before the mandatory thread is runnable.
        let dm = d.sub.model.begin_mandatory();
        d.eng.sample(OverheadKind::BeginMandatory, dm);
        let work = Work {
            task,
            cursor: Cursor::Mandatory,
        };
        d.events.push(d.now + dm, Event::Ready { work });
    }

    fn signal_optionals(d: &mut Driver<Self>, task: usize, np: usize) {
        // Δb: the `pthread_cond_signal` loop over all parallel optional
        // threads, executed sequentially by the mandatory thread. The
        // ready-time buffer is a reused scratch vector (taken out of the
        // driver across the model calls), so the loop allocates nothing
        // after the first job.
        let mut ready_times = std::mem::take(&mut d.sub.signal_scratch);
        ready_times.clear();
        let mut cum = Span::ZERO;
        for _ in 0..np {
            cum += d.sub.model.signal_one_optional();
            ready_times.push(d.now + cum);
        }
        d.eng.sample(OverheadKind::BeginOptional, cum);

        // Δs: the mandatory→optional context switch; parts placed on the
        // mandatory thread's own processor additionally wait for it.
        let ds = d.sub.model.switch_to_optional(np);
        d.eng.sample(OverheadKind::SwitchToOptional, ds);

        // The pushes wait for Δs, which is sampled after the loop. Their
        // instants ascend except where a part waits for Δs too, so the
        // queue keeps the loop as a few runs, not np heap entries.
        let mandatory_hw = d.eng.mandatory_hw(task);
        for (k, &base) in ready_times.iter().enumerate() {
            let at = if d.eng.placement(task, k) == mandatory_hw {
                base + ds
            } else {
                base
            };
            let work = Work {
                task,
                cursor: Cursor::Optional(k as u32),
            };
            d.events.push(at, Event::Ready { work });
        }
        d.sub.signal_scratch = ready_times;
    }

    fn ready(d: &mut Driver<Self>, work: Work) {
        let (hw, prio) = match work.cursor {
            Cursor::Mandatory => (d.eng.mandatory_hw(work.task), d.eng.mand_prio(work.task)),
            // The wind-up runs on the federated task's granted core; for
            // everything else `windup_hw` is the (job-bound) mandatory CPU.
            Cursor::Windup => (d.eng.windup_hw(work.task), d.eng.mand_prio(work.task)),
            Cursor::Optional(k) => (
                d.eng.placement(work.task, k as usize),
                d.eng.opt_prio(work.task),
            ),
        };
        d.trace_queue(QueueOp::Enqueue, prio, work.task, Some(hw));
        d.cpus[hw].queue.enqueue(prio, work);
        Self::dispatch(d, hw);
    }

    fn terminate(d: &mut Driver<Self>, work: Work, target: StopTarget) {
        // Δe: hops between cores cost extra under load.
        let cost = d.sub.model.end_one_part(target.cross_core);
        d.eng.note_termination_cost(cost);
        Self::stop(d, target.hw, work, target.prio);
    }

    fn stop(d: &mut Driver<Self>, hw: usize, work: Work, prio: Priority) {
        if d.cpus[hw].running.is_some_and(|r| r.work == work) {
            d.vacate(hw);
            Self::dispatch(d, hw);
        } else if d.cpus[hw].queue.remove(prio, &work) {
            d.trace_queue(QueueOp::Remove, prio, work.task, Some(hw));
        }
    }

    fn requeue(d: &mut Driver<Self>, hw: usize, r: Running) {
        d.cpus[hw].queue.enqueue_front(r.prio, r.work);
    }

    /// SCHED_FIFO dispatch for one processor: preempt if a higher-priority
    /// thread is waiting, then fill an idle processor with the best thread.
    fn dispatch(d: &mut Driver<Self>, hw: usize) {
        // A stalled hardware thread dispatches nothing until the window
        // closes (the stall handler already vacated it).
        if d.cpus[hw].stalled > 0 {
            return;
        }
        if let Some(running) = d.cpus[hw].running {
            let waiting = d.cpus[hw].queue.peek_highest_priority();
            if waiting.is_none_or(|p| p <= running.prio) {
                return;
            }
            d.vacate(hw);
            Self::requeue(d, hw, running);
        }
        let Some((prio, work)) = d.cpus[hw].queue.dequeue_highest() else {
            return;
        };
        d.trace_queue(QueueOp::Dispatch, prio, work.task, Some(hw));
        d.start(hw, work, prio);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_sim::SimExecutor;
    use crate::obs::TraceConfig;
    use crate::policy::AssignmentPolicy;
    use crate::serve::{ServeOutcome, SessionManager};
    use rtseed_analysis::PartitionHeuristic;
    use rtseed_model::{JobId, TaskId, TaskSet, TaskSpec};
    use rtseed_sim::{ChurnPlan, CpuStall, FaultTarget, RandomOverruns};

    fn spec(name: &str, period_ms: u64, rt_ms: u64, np: usize) -> TaskSpec {
        TaskSpec::builder(name)
            .period(Span::from_millis(period_ms))
            .mandatory(Span::from_millis(rt_ms))
            .windup(Span::from_millis(rt_ms))
            .optional_parts(np, Span::from_millis(period_ms))
            .build()
            .unwrap()
    }

    fn executor(
        task: TaskSpec,
        topology: Topology,
        policy: AssignmentPolicy,
        run: RunConfig,
    ) -> SimExecutor {
        let set = TaskSet::new(vec![task]).unwrap();
        SimExecutor::new(SystemConfig::build(set, topology, policy).unwrap(), run)
    }

    /// A two-tenant session on 4×2 with a stall at `t = 0`, a late arrival
    /// and a departure while a job is in flight.
    fn churned_session(seed: u64, arena: Option<&mut SimArena>) -> ServeOutcome {
        let run = RunConfig {
            jobs: 3,
            seed,
            fault_plan: FaultPlan::new(seed).with_cpu_stall(CpuStall {
                hw: 0,
                at: Time::ZERO,
                duration: Span::from_millis(20),
            }),
            trace: TraceConfig::enabled(),
            ..Default::default()
        };
        let plan = ChurnPlan::new()
            .arrive(Time::from_nanos(150_000_000), "c", vec![spec("c", 50, 5, 1)])
            .depart(Time::from_nanos(230_000_000), "a");
        let build = |arena: &mut SimArena| {
            let mut mgr = SessionManager::new_in(
                Topology::quad_core_smt2(),
                PartitionHeuristic::FirstFitDecreasing,
                AssignmentPolicy::TwoByTwo,
                run.clone(),
                arena,
            );
            mgr.submit("a", &[spec("a", 100, 10, 6)]).unwrap();
            mgr.submit("b", &[spec("b", 40, 4, 2)]).unwrap();
            mgr
        };
        match arena {
            Some(arena) => build(arena).run_with_churn_in(&plan, arena),
            None => build(&mut SimArena::new()).run_with_churn(&plan),
        }
    }

    /// Two tenants on 4×2, tracing on; `t` signals four optional parts,
    /// `stays` keeps a session alive past their ready times.
    fn signalling_session(arena: Option<&mut SimArena>, with_stays: bool) -> SessionManager {
        let mut mgr = SessionManager::new_in(
            Topology::quad_core_smt2(),
            PartitionHeuristic::FirstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 3,
                trace: TraceConfig::enabled(),
                ..Default::default()
            },
            arena.unwrap_or(&mut SimArena::new()),
        );
        mgr.submit("t", &[spec("t", 100, 10, 4)]).unwrap();
        if with_stays {
            mgr.submit("stays", &[spec("stays", 100, 10, 1)]).unwrap();
        }
        mgr
    }

    /// An instant after `job`'s mandatory part signalled its optional
    /// parts (Δb) and before the first of them is ready.
    fn mid_signalling(undisturbed: &ServeOutcome, job: JobId) -> Time {
        let mut events = undisturbed.outcome.trace.for_job(job);
        let signalled = events
            .find(|(_, e)| matches!(e, TraceEvent::MandatoryCompleted { .. }))
            .map(|(t, _)| *t)
            .expect("the job completes its mandatory part");
        let first_ready = events
            .find(|(_, e)| matches!(e, TraceEvent::Queue { op: QueueOp::Enqueue, .. }))
            .map(|(t, _)| *t)
            .expect("the job queues an optional part");
        assert!(first_ready > signalled, "Δb takes time");
        signalled + first_ready.saturating_elapsed_since(signalled) / 2
    }

    #[test]
    fn arena_reuse_is_observably_identical_to_fresh_runs() {
        // One hot arena across heterogeneous back-to-back runs (different
        // np, topology, jobs, faults) and across both front-ends must
        // reproduce what a cold run produces for each — i.e. the arena
        // carries no cross-run state.
        let phi = Topology::xeon_phi_3120a();
        let traced = |jobs| RunConfig {
            jobs,
            trace: TraceConfig::enabled(),
            ..Default::default()
        };
        let runs: Vec<SimExecutor> = vec![
            executor(spec("τ1", 1000, 250, 32), phi, AssignmentPolicy::AllByAll, traced(5)),
            // Smaller topology than the previous run: the CPU vector must
            // shrink, and stale queues on dropped CPUs must not leak.
            executor(
                spec("small", 100, 10, 2),
                Topology::uniprocessor(),
                AssignmentPolicy::OneByOne,
                RunConfig {
                    jobs: 3,
                    seed: 7,
                    ..Default::default()
                },
            ),
            executor(
                spec("τ1", 1000, 250, 8),
                phi,
                AssignmentPolicy::TwoByTwo,
                RunConfig {
                    seed: 99,
                    fault_plan: FaultPlan::new(99).with_random_overruns(RandomOverruns {
                        probability: 0.4,
                        min_factor: 2.0,
                        max_factor: 6.0,
                        target: FaultTarget::Mandatory,
                    }),
                    supervisor: true,
                    ..traced(6)
                },
            ),
            executor(spec("τ1", 1000, 250, 4), phi, AssignmentPolicy::OneByOne, traced(0)),
        ];
        // A session whose only tenant leaves mid-Δb ends there, with the
        // signalling loop's `Ready` events still queued.
        let first_job = JobId {
            task: TaskId(0),
            seq: 0,
        };
        let leave = mid_signalling(&signalling_session(None, false).run(), first_job);
        let cut_short = ChurnPlan::new().depart(leave, "t");
        let mut arena = SimArena::new();
        signalling_session(Some(&mut arena), false).run_with_churn_in(&cut_short, &mut arena);
        let queued = std::iter::from_fn(|| arena.events.pop())
            .filter(|(_, e)| matches!(e, Event::Ready { .. }))
            .count();
        assert_eq!(
            queued, 4,
            "the Δb loop is still queued when the session ends"
        );
        for (i, exec) in runs.iter().enumerate() {
            let hot = exec.run_in(&mut arena);
            let cold = exec.run();
            assert_eq!(hot.qos, cold.qos, "run {i}: qos diverged");
            assert_eq!(hot.overheads, cold.overheads, "run {i}: overheads diverged");
            assert_eq!(hot.trace, cold.trace, "run {i}: trace diverged");
            assert_eq!(hot.faults, cold.faults, "run {i}: faults diverged");
            assert_eq!(
                hot.events_processed, cold.events_processed,
                "run {i}: event count diverged"
            );
            // A serving session over the buffers the executor just parked,
            // which the next executor then gets back.
            let seed = i as u64;
            let hot = churned_session(seed, Some(&mut arena));
            let cold = churned_session(seed, None);
            assert_eq!(hot.outcome.qos, cold.outcome.qos, "session {i}: qos");
            assert_eq!(hot.outcome.overheads, cold.outcome.overheads, "session {i}: overheads");
            assert_eq!(hot.outcome.trace, cold.outcome.trace, "session {i}: trace");
            assert_eq!(hot.outcome.faults, cold.outcome.faults, "session {i}: faults");
            assert_eq!(
                hot.outcome.events_processed, cold.outcome.events_processed,
                "session {i}: event count"
            );
            assert_eq!(hot.counters, cold.counters, "session {i}: counters");
            // And one that parks the arena with runs pending.
            let hot = signalling_session(Some(&mut arena), false)
                .run_with_churn_in(&cut_short, &mut arena);
            let cold = signalling_session(None, false).run_with_churn(&cut_short);
            assert_eq!(hot.outcome.qos, cold.outcome.qos, "cut session {i}: qos");
            assert_eq!(
                hot.outcome.trace, cold.outcome.trace,
                "cut session {i}: trace"
            );
            assert_eq!(
                hot.outcome.events_processed, cold.outcome.events_processed,
                "cut session {i}: event count"
            );
        }
    }

    #[test]
    fn ready_for_a_retired_task_is_dropped() {
        // The tenant leaves after its mandatory part signalled the optional
        // parts (Δb) but before the first of them is ready: the job is
        // aborted, the task retired, and the `Ready` events still in the
        // queue must die there — no queue entry, no trace event.
        let session = || signalling_session(None, true);
        let job = JobId {
            task: TaskId(0),
            seq: 1,
        };
        let leave = mid_signalling(&session().run(), job);

        let out = session().run_with_churn(&ChurnPlan::new().depart(leave, "t"));
        let trace = &out.outcome.trace;
        assert_eq!(
            trace.for_job(job).filter(|(t, _)| *t > leave).count(),
            0,
            "a part of the aborted job reached a ready queue"
        );
        assert_eq!(trace.for_job(JobId { seq: 2, ..job }).count(), 0);
        assert_eq!(out.tenant("t").unwrap().qos.deadline_misses(), 1);
        assert_eq!(out.tenant("stays").unwrap().qos.jobs(), 3);
    }
}
