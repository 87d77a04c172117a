//! Deterministic fault injection for the simulation substrate.
//!
//! A [`FaultPlan`] describes *when and how the machine misbehaves*:
//! WCET overruns of real-time parts (a mandatory or wind-up computation
//! takes a multiple of its declared budget), optional-deadline timer
//! faults (latency spikes or a lost one-shot timer, the failure family
//! behind Table I's signal-mask defect), and CPU stall windows (an SMI /
//! thermal-throttle analogue during which a hardware thread executes
//! nothing).
//!
//! Every query is a **pure function** of the plan — explicit fault specs
//! plus a seed-keyed hash for the randomized component — so a run under a
//! fault plan is exactly as deterministic and replayable as a run without
//! one: same plan, same trace, bit for bit, regardless of the order in
//! which the executor asks. Faults are *injected* here but *observed and
//! survived* in the executors (`rtseed`'s overload supervisor), which is
//! what turns the imprecise-computation model's optional parts into a
//! load-shedding safety valve.

use rtseed_model::{Span, Time};

/// Which real-time part of a job a WCET fault applies to.
///
/// Optional parts are deliberately not a target: in the imprecise model
/// they carry no WCET guarantee — an optional part that runs long is
/// simply terminated at the optional deadline, which is the model's
/// built-in fault absorption. Faults that threaten deadlines are faults
/// in the *guaranteed* parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The job's mandatory part.
    Mandatory,
    /// The job's wind-up part.
    Windup,
}

/// A fault of the one-shot optional-deadline timer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimerFault {
    /// The timer fires late by the given span (interrupt latency spike).
    Delay(Span),
    /// The timer never fires for this job (lost one-shot — the transient
    /// version of the Table I signal-mask defect).
    Lost,
}

/// A half-open window of job sequence numbers `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobWindow {
    /// First affected job sequence number.
    pub from: u64,
    /// First job sequence number no longer affected.
    pub until: u64,
}

impl JobWindow {
    /// A window covering every job.
    pub const ALL: JobWindow = JobWindow {
        from: 0,
        until: u64::MAX,
    };

    /// The window `[from, until)`.
    pub fn new(from: u64, until: u64) -> JobWindow {
        JobWindow { from, until }
    }

    /// Whether `seq` falls inside the window.
    pub fn contains(&self, seq: u64) -> bool {
        seq >= self.from && seq < self.until
    }
}

/// An explicit WCET overrun: the targeted part's execution demand is
/// multiplied by `factor` for matching jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcetFault {
    /// Task index the fault applies to; `None` applies to every task.
    pub task: Option<u32>,
    /// Affected jobs.
    pub jobs: JobWindow,
    /// Which real-time part overruns.
    pub target: FaultTarget,
    /// Demand multiplier (> 0; 1.0 is a no-op, 3.0 is a 3× overrun).
    pub factor: f64,
}

/// An explicit optional-deadline timer fault for matching jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerFaultSpec {
    /// Task index the fault applies to; `None` applies to every task.
    pub task: Option<u32>,
    /// Affected jobs.
    pub jobs: JobWindow,
    /// The fault.
    pub fault: TimerFault,
}

/// A window during which one hardware thread executes nothing (SMI,
/// thermal throttle, hypervisor steal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuStall {
    /// The stalled hardware thread.
    pub hw: u32,
    /// Stall onset (simulation time).
    pub at: Time,
    /// Stall length.
    pub duration: Span,
}

/// Seeded random WCET overruns: each `(task, job)` pair independently
/// overruns with `probability`, by a factor drawn uniformly from
/// `[min_factor, max_factor]`. Both the decision and the factor are
/// derived by hashing the plan seed with the job coordinates, never from
/// mutable generator state — replay cannot drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomOverruns {
    /// Per-job overrun probability in `[0, 1]`.
    pub probability: f64,
    /// Smallest overrun factor.
    pub min_factor: f64,
    /// Largest overrun factor.
    pub max_factor: f64,
    /// Which real-time part overruns.
    pub target: FaultTarget,
}

/// A deterministic, replayable schedule of machine faults.
///
/// Build with [`FaultPlan::new`] and the `with_*` methods; query from an
/// executor via [`wcet_factor`](FaultPlan::wcet_factor),
/// [`timer_fault`](FaultPlan::timer_fault) and
/// [`stalls`](FaultPlan::stalls).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    wcet: Vec<WcetFault>,
    timers: Vec<TimerFaultSpec>,
    stalls: Vec<CpuStall>,
    random: Option<RandomOverruns>,
}

impl FaultPlan {
    /// An empty plan with the given randomness seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The no-fault plan (what executors run by default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// The plan's randomness seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.wcet.is_empty()
            && self.timers.is_empty()
            && self.stalls.is_empty()
            && self.random.is_none()
    }

    /// Adds an explicit WCET overrun.
    ///
    /// # Panics
    ///
    /// Panics if `fault.factor` is not strictly positive.
    pub fn with_wcet_fault(mut self, fault: WcetFault) -> FaultPlan {
        assert!(
            fault.factor > 0.0 && fault.factor.is_finite(),
            "WCET factor must be finite and > 0"
        );
        self.wcet.push(fault);
        self
    }

    /// Adds an explicit timer fault.
    pub fn with_timer_fault(mut self, fault: TimerFaultSpec) -> FaultPlan {
        self.timers.push(fault);
        self
    }

    /// Adds a CPU stall window.
    pub fn with_cpu_stall(mut self, stall: CpuStall) -> FaultPlan {
        self.stalls.push(stall);
        self
    }

    /// Enables seeded random overruns.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]` or the factor range
    /// is empty or non-positive.
    pub fn with_random_overruns(mut self, random: RandomOverruns) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&random.probability),
            "probability must be within [0, 1]"
        );
        assert!(
            random.min_factor > 0.0 && random.max_factor >= random.min_factor,
            "factor range must be positive and non-empty"
        );
        self.random = Some(random);
        self
    }

    /// The demand multiplier for `target` of job `seq` of `task` — the
    /// product of every matching explicit fault and the random component.
    /// 1.0 means no fault.
    pub fn wcet_factor(&self, task: u32, seq: u64, target: FaultTarget) -> f64 {
        let mut factor = 1.0;
        for f in &self.wcet {
            if f.target == target
                && f.jobs.contains(seq)
                && f.task.is_none_or(|t| t == task)
            {
                factor *= f.factor;
            }
        }
        if let Some(r) = self.random {
            if r.target == target {
                let h = self.hash(task, seq, target as u64 | 0x100);
                if unit(h) < r.probability {
                    let u = unit(self.hash(task, seq, target as u64 | 0x200));
                    factor *= r.min_factor + u * (r.max_factor - r.min_factor);
                }
            }
        }
        factor
    }

    /// The timer fault (if any) for job `seq` of `task`. When several
    /// specs match, `Lost` dominates; otherwise delays add.
    pub fn timer_fault(&self, task: u32, seq: u64) -> Option<TimerFault> {
        let mut delay: Option<Span> = None;
        for f in &self.timers {
            if !f.jobs.contains(seq) || f.task.is_some_and(|t| t != task) {
                continue;
            }
            match f.fault {
                TimerFault::Lost => return Some(TimerFault::Lost),
                TimerFault::Delay(d) => {
                    delay = Some(delay.unwrap_or(Span::ZERO) + d);
                }
            }
        }
        delay.map(TimerFault::Delay)
    }

    /// All planned CPU stall windows.
    pub fn stalls(&self) -> &[CpuStall] {
        &self.stalls
    }

    fn hash(&self, task: u32, seq: u64, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(task).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(salt);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Maps 64 hash bits to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_identity() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.wcet_factor(0, 0, FaultTarget::Mandatory), 1.0);
        assert_eq!(p.timer_fault(3, 7), None);
        assert!(p.stalls().is_empty());
    }

    #[test]
    fn explicit_wcet_fault_scopes_to_task_and_jobs() {
        let p = FaultPlan::new(1).with_wcet_fault(WcetFault {
            task: Some(2),
            jobs: JobWindow::new(5, 10),
            target: FaultTarget::Mandatory,
            factor: 3.0,
        });
        assert_eq!(p.wcet_factor(2, 5, FaultTarget::Mandatory), 3.0);
        assert_eq!(p.wcet_factor(2, 9, FaultTarget::Mandatory), 3.0);
        assert_eq!(p.wcet_factor(2, 10, FaultTarget::Mandatory), 1.0);
        assert_eq!(p.wcet_factor(1, 5, FaultTarget::Mandatory), 1.0);
        assert_eq!(p.wcet_factor(2, 5, FaultTarget::Windup), 1.0);
    }

    #[test]
    fn overlapping_faults_multiply() {
        let f = |factor| WcetFault {
            task: None,
            jobs: JobWindow::ALL,
            target: FaultTarget::Windup,
            factor,
        };
        let p = FaultPlan::new(0).with_wcet_fault(f(2.0)).with_wcet_fault(f(1.5));
        assert!((p.wcet_factor(0, 0, FaultTarget::Windup) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn timer_lost_dominates_delays() {
        let p = FaultPlan::new(0)
            .with_timer_fault(TimerFaultSpec {
                task: None,
                jobs: JobWindow::ALL,
                fault: TimerFault::Delay(Span::from_millis(5)),
            })
            .with_timer_fault(TimerFaultSpec {
                task: Some(0),
                jobs: JobWindow::new(2, 3),
                fault: TimerFault::Lost,
            });
        assert_eq!(
            p.timer_fault(0, 1),
            Some(TimerFault::Delay(Span::from_millis(5)))
        );
        assert_eq!(p.timer_fault(0, 2), Some(TimerFault::Lost));
        assert_eq!(
            p.timer_fault(1, 2),
            Some(TimerFault::Delay(Span::from_millis(5)))
        );
    }

    #[test]
    fn delays_accumulate() {
        let d = |ms| TimerFaultSpec {
            task: None,
            jobs: JobWindow::ALL,
            fault: TimerFault::Delay(Span::from_millis(ms)),
        };
        let p = FaultPlan::new(0).with_timer_fault(d(3)).with_timer_fault(d(4));
        assert_eq!(
            p.timer_fault(0, 0),
            Some(TimerFault::Delay(Span::from_millis(7)))
        );
    }

    #[test]
    fn random_overruns_are_pure_in_the_seed() {
        let plan = |seed| {
            FaultPlan::new(seed).with_random_overruns(RandomOverruns {
                probability: 0.5,
                min_factor: 2.0,
                max_factor: 4.0,
                target: FaultTarget::Mandatory,
            })
        };
        let (a, b, c) = (plan(7), plan(7), plan(8));
        let mut hit = 0;
        let mut diverged = false;
        for seq in 0..200 {
            let fa = a.wcet_factor(0, seq, FaultTarget::Mandatory);
            assert_eq!(fa, b.wcet_factor(0, seq, FaultTarget::Mandatory));
            if fa != 1.0 {
                hit += 1;
                assert!((2.0..=4.0).contains(&fa), "{fa}");
            }
            if fa != c.wcet_factor(0, seq, FaultTarget::Mandatory) {
                diverged = true;
            }
        }
        assert!((60..=140).contains(&hit), "p=0.5 over 200 jobs: {hit}");
        assert!(diverged, "different seeds must differ somewhere");
        // The untargeted part is never faulted.
        for seq in 0..200 {
            assert_eq!(a.wcet_factor(0, seq, FaultTarget::Windup), 1.0);
        }
    }

    #[test]
    fn query_order_does_not_matter() {
        let p = FaultPlan::new(42).with_random_overruns(RandomOverruns {
            probability: 0.3,
            min_factor: 1.5,
            max_factor: 2.0,
            target: FaultTarget::Mandatory,
        });
        let forward: Vec<f64> = (0..50)
            .map(|s| p.wcet_factor(1, s, FaultTarget::Mandatory))
            .collect();
        let backward: Vec<f64> = (0..50)
            .rev()
            .map(|s| p.wcet_factor(1, s, FaultTarget::Mandatory))
            .collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "factor must be finite")]
    fn rejects_nonpositive_factor() {
        let _ = FaultPlan::new(0).with_wcet_fault(WcetFault {
            task: None,
            jobs: JobWindow::ALL,
            target: FaultTarget::Mandatory,
            factor: 0.0,
        });
    }
}
