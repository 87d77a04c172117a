//! Global semi-fixed-priority executor (**G-RMWP**) on the simulation
//! substrate — the road the paper deliberately does *not* take (§IV-B):
//!
//! > "(i) global scheduling, such as in G-RMWP, allows tasks to migrate
//! > among processors, resulting in high overheads, and (ii)
//! > middleware-level global scheduling is unsuitable …"
//!
//! This executor exists to *quantify* claim (i): mandatory and wind-up
//! parts are dispatched from one global ready queue onto any hardware
//! thread (highest priorities run, lowest running part is preempted), and
//! every time a part resumes on a different hardware thread than the one
//! it last used, a **migration penalty** (cold L1/L2 refill) is added to
//! its remaining execution and counted. The `ablation_grmwp` rows of the
//! `paperfigs` bench compare migrations, added overhead and deadline
//! misses against P-RMWP on the same task sets.
//!
//! Parallel optional parts keep their policy placement and never migrate,
//! exactly as in the parallel-extended model (§II-A) — only the real-time
//! parts are scheduled globally.
//!
//! All protocol decisions — part lifecycle, banking, budget cuts, OD
//! termination, QoS — live in the shared [`Engine`](crate::engine), and the
//! event loop (release, completion, OD termination, stall windows, abort)
//! in the crate's one discrete-event driver; this module supplies only its
//! global-dispatch substrate: the shared RT queue, processor choice,
//! preemption and migration accounting. Faulted workloads are therefore
//! comparable with the partitioned simulator event for event.

use rtseed_model::{HwThreadId, Priority, Span};
use rtseed_sim::FifoReadyQueue;

use crate::config::SystemConfig;
use crate::des::{Driver, Running, SimArena, Substrate, Work};
use crate::engine::{Cursor, Engine, StopTarget};
use crate::executor::{Outcome, RunConfig};
use crate::obs::{QueueOp, TraceEvent};

/// The cost added to a real-time part's remaining execution each time it
/// resumes on a different hardware thread: cold caches on the new
/// processor. A constant, since one value is in use (the paper workload's
/// global ablation in `paperfigs` runs with it).
const MIGRATION_COST: Span = Span::from_micros(100);

/// The global (G-RMWP) executor. Unlike [`crate::exec_sim::SimExecutor`],
/// real-time parts are **not** pinned: they run wherever a processor is
/// free (or preemptible), paying a fixed 100 µs each time they move.
#[derive(Debug)]
pub struct GlobalExecutor {
    config: SystemConfig,
    run: RunConfig,
}

impl GlobalExecutor {
    /// Creates a global executor from a [`SystemConfig`] (the partition
    /// placement is ignored — that is the point — but its per-task
    /// optional deadlines and priorities are reused so both executors run
    /// the identical offline configuration).
    pub fn from_config(config: &SystemConfig, run: RunConfig) -> GlobalExecutor {
        GlobalExecutor {
            config: config.clone(),
            run,
        }
    }

    /// Runs the global simulation to completion.
    pub fn run(&self) -> Outcome {
        let eng = Engine::new(&self.config, &self.run);
        let sub = Global {
            rt_queue: FifoReadyQueue::new(),
            last_cpu: vec![None; eng.task_count()],
            migrations: 0,
            dispatches: 0,
        };
        let hw_threads = self.config.topology().hw_threads() as usize;
        let mut state = Driver::new_in(&mut SimArena::new(), hw_threads, eng, sub);
        state.run_closed(&self.config, &self.run);
        let Driver {
            eng,
            now,
            sub,
            events_processed,
            ..
        } = state;
        Outcome {
            migrations: sub.migrations,
            migration_overhead: MIGRATION_COST * sub.migrations,
            dispatches: sub.dispatches,
            ..eng.finish(now).into_outcome(events_processed)
        }
    }
}

/// Global dispatch under the shared driver: one ready queue for all
/// real-time parts, the driver's per-CPU queues for the (pinned) optional
/// parts, and the migration reference point of every task. The substrate
/// is costless — no Δm/Δb/Δs wake-up events, no per-part Δe — because this
/// executor isolates the migration effect; a part is runnable the instant
/// the protocol says so.
#[derive(Debug)]
struct Global {
    rt_queue: FifoReadyQueue<Work>,
    /// Last processor each task's real-time side ran on (a driver
    /// concern, not protocol state).
    last_cpu: Vec<Option<usize>>,
    migrations: u64,
    dispatches: u64,
}

impl Substrate for Global {
    fn wake_mandatory(d: &mut Driver<Self>, task: usize) {
        let cursor = Cursor::Mandatory;
        Self::ready(d, Work { task, cursor });
    }

    fn signal_optionals(d: &mut Driver<Self>, task: usize, np: usize) {
        for k in 0..np {
            let cursor = Cursor::Optional(k as u32);
            Self::ready(d, Work { task, cursor });
        }
    }

    fn ready(d: &mut Driver<Self>, work: Work) {
        match work.cursor {
            Cursor::Optional(k) => {
                let hw = d.eng.placement(work.task, k as usize);
                let prio = d.eng.opt_prio(work.task);
                d.trace_queue(QueueOp::Enqueue, prio, work.task, Some(hw));
                d.cpus[hw].queue.enqueue(prio, work);
            }
            Cursor::Mandatory | Cursor::Windup => {
                let prio = d.eng.mand_prio(work.task);
                // The global RT queue is bound to no hardware thread.
                d.trace_queue(QueueOp::Enqueue, prio, work.task, None);
                d.sub.rt_queue.enqueue(prio, work);
            }
        }
    }

    fn terminate(d: &mut Driver<Self>, work: Work, target: StopTarget) {
        if Self::take_off(d, target.hw, work, target.prio) {
            d.trace_queue(QueueOp::Remove, target.prio, work.task, Some(target.hw));
        }
    }

    fn stop(d: &mut Driver<Self>, hw: usize, work: Work, prio: Priority) {
        Self::take_off(d, hw, work, prio);
    }

    fn requeue(d: &mut Driver<Self>, hw: usize, r: Running) {
        match r.work.cursor {
            // An interrupted RT part is up for grabs again: it may resume
            // on another processor.
            Cursor::Mandatory | Cursor::Windup => d.sub.rt_queue.enqueue_front(r.prio, r.work),
            Cursor::Optional(_) => d.cpus[hw].queue.enqueue_front(r.prio, r.work),
        }
    }

    fn dispatch(d: &mut Driver<Self>, _hw: usize) {
        Self::settle(d);
    }

    /// Global dispatch: while the RT queue's best beats some processor's
    /// current work (or an idle processor exists), place it there. Then
    /// fill remaining idle processors with their pinned optional parts.
    fn settle(d: &mut Driver<Self>) {
        while let Some(best) = d.sub.rt_queue.peek_highest_priority() {
            let Some(cpu) = Self::pick_cpu(d, best) else {
                break;
            };
            let (prio, work) = d.sub.rt_queue.dequeue_highest().expect("peeked");
            if let Some(r) = d.vacate(cpu) {
                Self::requeue(d, cpu, r);
            }
            Self::start(d, cpu, work, prio);
        }
        // Optional parts only ever run on their own (pinned) processor.
        for cpu in 0..d.cpus.len() {
            if d.cpus[cpu].running.is_none() && d.cpus[cpu].stalled == 0 {
                if let Some((prio, work)) = d.cpus[cpu].queue.dequeue_highest() {
                    Self::start(d, cpu, work, prio);
                }
            }
        }
    }
}

impl Global {
    /// The processor the best RT work should take: last-used if idle, any
    /// idle, else the lowest-priority running processor if it is strictly
    /// weaker. Stalled processors are never candidates. `None` if nothing
    /// beats it.
    fn pick_cpu(d: &Driver<Self>, best: Priority) -> Option<usize> {
        // Peek the head work of the best level to honour affinity.
        let work = *d.sub.rt_queue.iter_at(best).next()?;
        let avail = |c: usize| d.cpus[c].stalled == 0;
        let running = |c: usize| d.cpus[c].running.map(|r| r.prio);
        // Placement-policy bindings are hard even under global dispatch: a
        // split task's job runs wholly on its release-time CPU (so the only
        // migrations are at job boundaries), and a federated wind-up runs
        // on its granted core. The work waits if its CPU is busy with
        // higher-priority work, exactly like the weakest-processor rule.
        if let Some(bound) = Self::bound_cpu(d, &work) {
            if !avail(bound) {
                return None;
            }
            return running(bound).is_none_or(|p| best > p).then_some(bound);
        }
        if let Some(cpu) = d.sub.last_cpu[work.task] {
            if avail(cpu) && running(cpu).is_none() {
                return Some(cpu);
            }
        }
        if let Some(idle) = (0..d.cpus.len()).find(|&c| avail(c) && running(c).is_none()) {
            return Some(idle);
        }
        let weakest = (0..d.cpus.len())
            .filter(|&c| avail(c))
            .min_by_key(|&c| running(c).expect("all busy"))?;
        (best > running(weakest).expect("busy")).then_some(weakest)
    }

    /// The CPU `work` is hard-bound to under the placement policy, if any:
    /// the job-bound host of a split task (either real-time part), or the
    /// granted core for a federated task's wind-up.
    fn bound_cpu(d: &Driver<Self>, work: &Work) -> Option<usize> {
        if work.cursor == Cursor::Windup {
            if let Some(granted) = d.eng.granted_hw(work.task) {
                return Some(granted);
            }
        }
        d.eng
            .secondary_hw(work.task)
            .map(|_| d.eng.mandatory_hw(work.task))
    }

    fn start(d: &mut Driver<Self>, cpu: usize, work: Work, prio: Priority) {
        d.trace_queue(QueueOp::Dispatch, prio, work.task, Some(cpu));
        if matches!(work.cursor, Cursor::Mandatory | Cursor::Windup) {
            d.sub.dispatches += 1;
            let from = d.sub.last_cpu[work.task].replace(cpu).filter(|&c| c != cpu);
            if let Some(from) = from {
                // Migration: cold caches on the new processor. A legitimate
                // system overhead, so the supervisor budget absorbs it too
                // (migrations alone must not trip cuts).
                d.eng.add_migration_debt(work.task, MIGRATION_COST);
                d.sub.migrations += 1;
                let job = d.eng.job(work.task);
                d.eng.trace(
                    d.now,
                    TraceEvent::Migrated {
                        job,
                        from: HwThreadId(from as u32),
                        to: HwThreadId(cpu as u32),
                    },
                );
            }
        }
        d.start(cpu, work, prio);
    }

    /// Takes `work` off whichever processor runs it (banking what it ran)
    /// or out of the queue it waits in; `true` if it was queued. Real-time
    /// parts may be anywhere, optional parts only on `hw`.
    fn take_off(d: &mut Driver<Self>, hw: usize, work: Work, prio: Priority) -> bool {
        let runs = |d: &Driver<Self>, c: usize| d.cpus[c].running.is_some_and(|r| r.work == work);
        match work.cursor {
            Cursor::Optional(_) => {
                if runs(d, hw) {
                    d.vacate(hw);
                }
                d.cpus[hw].queue.remove(prio, &work)
            }
            Cursor::Mandatory | Cursor::Windup => {
                if let Some(cpu) = (0..d.cpus.len()).find(|&c| runs(d, c)) {
                    d.vacate(cpu);
                }
                d.sub.rt_queue.remove(prio, &work)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AssignmentPolicy;
    use rtseed_model::{TaskSet, TaskSpec, Time, Topology};
    use rtseed_sim::{FaultPlan, FaultTarget};

    fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64, np: usize) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(period_ms))
            .mandatory(Span::from_millis(m_ms))
            .windup(Span::from_millis(w_ms));
        if np > 0 {
            b.optional_parts(np, Span::from_millis(period_ms));
        }
        b.build().unwrap()
    }

    fn config(tasks: Vec<TaskSpec>, topo: Topology) -> SystemConfig {
        SystemConfig::build(
            TaskSet::new(tasks).unwrap(),
            topo,
            AssignmentPolicy::OneByOne,
        )
        .unwrap()
    }

    #[test]
    fn single_task_never_migrates() {
        let cfg = config(vec![task("t", 100, 10, 10, 2)], Topology::quad_core_smt2());
        let out = GlobalExecutor::from_config(&cfg, RunConfig { jobs: 10, ..Default::default() }).run();
        assert_eq!(out.qos.jobs(), 10);
        assert_eq!(out.qos.deadline_misses(), 0);
        assert_eq!(out.migrations, 0, "one task sticks to its last cpu");
        assert_eq!(out.migration_overhead, Span::ZERO);
    }

    #[test]
    fn more_tasks_than_cpus_migrate_under_global() {
        // Four RT-heavy tasks on 2 cpus with staggered periods: global
        // dispatch moves wind-up parts across processors.
        let cfg = config(
            vec![
                task("a", 40, 8, 8, 0),
                task("b", 50, 8, 8, 0),
                task("c", 60, 8, 8, 0),
                task("d", 70, 8, 8, 0),
            ],
            Topology::new(2, 1).unwrap(),
        );
        let out = GlobalExecutor::from_config(
            &cfg,
            RunConfig {
                jobs: 20,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.jobs(), 80);
        assert!(out.migrations > 0, "expected migrations under global dispatch");
        assert_eq!(
            out.migration_overhead,
            Span::from_micros(100) * out.migrations
        );
        assert!(out.dispatches >= out.migrations);
    }

    #[test]
    fn qos_accounting_matches_part_counts() {
        let cfg = config(vec![task("t", 100, 20, 20, 3)], Topology::quad_core_smt2());
        let out = GlobalExecutor::from_config(
            &cfg,
            RunConfig {
                jobs: 5,
                ..Default::default()
            },
        )
        .run();
        let (c, t, d) = out.qos.outcome_totals();
        assert_eq!(c + t + d, 15);
        // o = period always overruns: everything is terminated.
        assert_eq!(t, 15);
    }

    #[test]
    fn short_optional_parts_complete_globally() {
        let mut b = TaskSpec::builder("t");
        b.period(Span::from_millis(100))
            .mandatory(Span::from_millis(10))
            .windup(Span::from_millis(10))
            .optional_parts(2, Span::from_millis(5));
        let cfg = config(vec![b.build().unwrap()], Topology::quad_core_smt2());
        let out = GlobalExecutor::from_config(
            &cfg,
            RunConfig {
                jobs: 4,
                ..Default::default()
            },
        )
        .run();
        let (c, t, d) = out.qos.outcome_totals();
        assert_eq!(c, 8, "t/d = {t}/{d}");
        assert_eq!(out.qos.deadline_misses(), 0);
    }

    #[test]
    fn supervisor_cuts_global_overruns() {
        use rtseed_sim::{JobWindow, WcetFault};

        let cfg = config(vec![task("t", 100, 10, 10, 0)], Topology::new(2, 1).unwrap());
        // 15× the mandatory demand (7.5 ms × 15 = 112.5 ms) overruns the
        // whole period.
        let plan = FaultPlan::new(3).with_wcet_fault(WcetFault {
            task: None,
            jobs: JobWindow::ALL,
            target: FaultTarget::Mandatory,
            factor: 15.0,
        });
        let sick = GlobalExecutor::from_config(
            &cfg,
            RunConfig {
                jobs: 5,
                fault_plan: plan.clone(),
                ..Default::default()
            },
        )
        .run();
        assert!(sick.qos.deadline_misses() > 0);
        assert_eq!(sick.faults.wcet_faults, 5);
        assert_eq!(sick.faults.budget_cuts, 0);

        let cured = GlobalExecutor::from_config(
            &cfg,
            RunConfig {
                jobs: 5,
                fault_plan: plan,
                supervisor: true,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(cured.qos.deadline_misses(), 0);
        assert_eq!(cured.faults.budget_cuts, 5);
        assert_eq!(cured.faults.degraded_entries, 1);
    }

    #[test]
    fn deterministic() {
        let cfg = config(
            vec![task("a", 40, 8, 8, 2), task("b", 50, 8, 8, 2)],
            Topology::new(2, 1).unwrap(),
        );
        let run = || {
            GlobalExecutor::from_config(
                &cfg,
                RunConfig {
                    jobs: 10,
                    ..Default::default()
                },
            )
            .run()
        };
        let x = run();
        let y = run();
        assert_eq!(x.qos, y.qos);
        assert_eq!(x.migrations, y.migrations);
    }

    #[test]
    fn cpu_stalls_are_modelled_globally() {
        // Regression: the global backend used to drop FaultPlan CPU stalls
        // on the floor. A stall on the only processor must now starve the
        // task and register in the fault report.
        let cfg = config(vec![task("t", 100, 10, 10, 0)], Topology::new(1, 1).unwrap());
        let plan = FaultPlan::new(0).with_cpu_stall(rtseed_sim::CpuStall {
            hw: 0,
            at: Time::ZERO,
            duration: Span::from_millis(95),
        });
        let out = GlobalExecutor::from_config(
            &cfg,
            RunConfig {
                jobs: 3,
                fault_plan: plan,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.faults.cpu_stalls, 1);
        assert_eq!(out.qos.deadline_misses(), 1, "job 0 starves through the stall");
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::CpuStallStarted { .. })),
            1
        );
    }
}

