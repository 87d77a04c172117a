//! RMWP optional-deadline calculation and schedulability analysis.
//!
//! RMWP (Rate Monotonic with Wind-up Part, Chishiro et al. 2010) is the
//! uniprocessor semi-fixed-priority algorithm this middleware implements in
//! partitioned form (P-RMWP). Its key offline artifact is the **optional
//! deadline** `ODᵢ`: the instant (relative to release) when a job's
//! optional parts are terminated and its wind-up part is released (paper
//! §II-B).
//!
//! The paper cites the OD formula as "Theorem 2 of \[5\]" without reprinting
//! it; DESIGN.md documents our sound reconstruction:
//!
//! * `R^m_i` — worst-case response time of the mandatory part under
//!   interference from higher-priority tasks' mandatory **and** wind-up
//!   parts (conservative: both real-time parts of a higher-priority task
//!   may execute inside the window);
//! * `R^w_i` — worst-case response time of the wind-up part under the same
//!   interference;
//! * `ODᵢ = Dᵢ − R^w_i`, schedulable iff `R^m_i ≤ ODᵢ` for every task.
//!
//! For the single-task evaluation workload of §V-A this degenerates to the
//! exact formula the paper uses, `OD₁ = D₁ − w₁`.
//!
//! By Theorems 1 and 2 of the paper the same deadlines and tests apply
//! unchanged to the **parallel-extended** model (optional parts never
//! interfere with real-time parts), which is why this module never looks at
//! `oᵢ,ₖ`.

use core::fmt;

use rtseed_model::{Span, TaskId, TaskSet};

use crate::rta::{response_time, response_time_from, Interferer, RtaError};

/// Result of analyzing a task set for RMWP on a single processor: per-task
/// response times and optional deadlines, in the task set's id order.
#[derive(Debug, Clone, PartialEq)]
pub struct RmwpAnalysis {
    mandatory_response: Vec<Span>,
    windup_response: Vec<Span>,
    optional_deadline: Vec<Span>,
    rm_order: Vec<TaskId>,
}

impl RmwpAnalysis {
    /// Analyzes `set` for RMWP schedulability on one processor, computing
    /// every task's optional deadline.
    ///
    /// Priorities are Rate Monotonic over the *whole tasks* (part-level
    /// fixed priorities then follow §IV-B's band mapping).
    ///
    /// # Errors
    ///
    /// [`RmwpError::Unschedulable`] if any mandatory part cannot be
    /// guaranteed to finish by its optional deadline, or any wind-up part
    /// cannot finish by its deadline.
    pub fn analyze(set: &TaskSet) -> Result<RmwpAnalysis, RmwpError> {
        Self::analyze_with_order(set, set.rm_order())
    }

    /// Like [`RmwpAnalysis::analyze`], but with an explicit priority order
    /// (highest priority first). This is what RT-Seed's configuration
    /// layer uses so the admission test agrees with the *deployed*
    /// priorities — RM-US places heavy tasks in the HPQ *above* RM order
    /// (paper §IV-B footnote 1), and analysing against plain RM would
    /// silently under-estimate their interference.
    ///
    /// # Errors
    ///
    /// [`RmwpError::Unschedulable`] as for [`RmwpAnalysis::analyze`].
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the set's task ids.
    pub fn analyze_with_order(
        set: &TaskSet,
        order: Vec<TaskId>,
    ) -> Result<RmwpAnalysis, RmwpError> {
        assert_eq!(order.len(), set.len(), "order must cover every task");
        let rm_order = order;
        let n = set.len();
        let mut mandatory_response = vec![Span::ZERO; n];
        let mut windup_response = vec![Span::ZERO; n];
        let mut optional_deadline = vec![Span::ZERO; n];

        for (rank, &id) in rm_order.iter().enumerate() {
            let spec = set.task(id);
            let hp: Vec<Interferer> = rm_order[..rank]
                .iter()
                .map(|&j| {
                    let s = set.task(j);
                    Interferer {
                        period: s.period(),
                        demand: s.wcet(),
                    }
                })
                .collect();

            let rw = response_time(spec.windup(), &hp, spec.deadline()).map_err(|source| {
                RmwpError::Unschedulable {
                    task: id,
                    part: UnschedulablePart::Windup,
                    source,
                }
            })?;
            let od = spec.deadline() - rw;

            // A task without optional parts and without a wind-up part is a
            // plain RM task: its "optional deadline" is its deadline and
            // only the mandatory response matters.
            let rm_bound = if spec.windup().is_zero() && spec.optional_count() == 0 {
                spec.deadline()
            } else {
                od
            };
            let rm = response_time(spec.mandatory(), &hp, rm_bound).map_err(|source| {
                RmwpError::Unschedulable {
                    task: id,
                    part: UnschedulablePart::Mandatory,
                    source,
                }
            })?;

            let idx = id.index();
            mandatory_response[idx] = rm;
            windup_response[idx] = rw;
            optional_deadline[idx] = od;
        }

        Ok(RmwpAnalysis {
            mandatory_response,
            windup_response,
            optional_deadline,
            rm_order,
        })
    }

    /// The relative optional deadline `ODᵢ` of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range for the analyzed set.
    #[inline]
    pub fn optional_deadline(&self, task: TaskId) -> Span {
        self.optional_deadline[task.index()]
    }

    /// Worst-case response time of the mandatory part of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn mandatory_response(&self, task: TaskId) -> Span {
        self.mandatory_response[task.index()]
    }

    /// Worst-case response time of the wind-up part of `task` measured from
    /// its optional deadline.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn windup_response(&self, task: TaskId) -> Span {
        self.windup_response[task.index()]
    }

    /// Task ids in Rate Monotonic priority order (highest first).
    #[inline]
    pub fn rm_order(&self) -> &[TaskId] {
        &self.rm_order
    }

    /// The *guaranteed* slack available to optional parts of `task`:
    /// `ODᵢ − R^m_i`. Optional parts released when the mandatory part
    /// completes at its worst-case response time have at least this long
    /// before termination.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn guaranteed_optional_window(&self, task: TaskId) -> Span {
        self.optional_deadline[task.index()]
            .saturating_sub(self.mandatory_response[task.index()])
    }
}

/// One priority-ordered entry for the generalized bin analysis
/// [`analyze_ordered`], decoupling the *interference arrival period* from
/// the *deadline*.
///
/// A whole task has `arrival == deadline == T`. A split subtask under the
/// semi-partitioned policy (restricted migration, alternating jobs per
/// CPU, Dorin et al.) arrives on each host CPU only every **other** job:
/// its arrival period is `2T` while its deadline stays `T`. Interference
/// it causes on lower-priority tasks in the bin is then charged at the
/// `2T` arrival rate — the split-aware RTA term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinTask {
    /// Minimum inter-arrival of this entry's jobs **on this CPU**.
    pub arrival: Span,
    /// Relative deadline of each job (≤ `arrival`).
    pub deadline: Span,
    /// WCET of the mandatory part.
    pub mandatory: Span,
    /// WCET of the wind-up part.
    pub windup: Span,
    /// `true` for a plain RM task (no wind-up, no optional parts): the
    /// mandatory part is then bounded by the deadline, not by OD.
    pub deadline_only: bool,
}

/// Per-entry fixpoints computed by [`analyze_ordered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinFix {
    /// Worst-case response time of the mandatory part.
    pub mandatory_response: Span,
    /// Worst-case response time of the wind-up part.
    pub windup_response: Span,
    /// Optional deadline `OD = deadline − R^w`.
    pub optional_deadline: Span,
}

impl BinTask {
    /// What this entry charges every lower-priority entry of its bin: both
    /// real-time parts, once per `arrival`.
    #[inline]
    pub(crate) fn interference(&self) -> Interferer {
        Interferer {
            period: self.arrival,
            demand: self.mandatory + self.windup,
        }
    }
}

/// One step of the RMWP walk down a bin's priority order — the only copy
/// of it besides the [`RmwpAnalysis::analyze_with_order`] oracle: solves
/// `t` below the interferers in `hp`, then adds `t` to them, so the next
/// call solves the entry one priority lower.
///
/// `warm` is what the same entry's fixpoints were under a *subset* of
/// `hp` (its optional deadline is not read); both iterations then start
/// from those response times instead of from the costs and end on the same
/// least fixpoints — see [`response_time_from`] for the argument and for
/// why it fails once an interferer has left or changed. The mandatory part
/// is bounded by the optional deadline computed *here*, so a warm response
/// time that no longer fits under a shrunken OD is refused before it
/// iterates.
///
/// # Errors
///
/// The [`RtaError`] of the part that misses its bound; `hp` is then left
/// without `t`.
pub(crate) fn solve_next(
    hp: &mut Vec<Interferer>,
    t: &BinTask,
    warm: Option<BinFix>,
) -> Result<BinFix, RtaError> {
    let (rm_start, rw_start) = warm.map_or((t.mandatory, t.windup), |w| {
        (w.mandatory_response, w.windup_response)
    });
    let rw = response_time_from(t.windup, rw_start, hp, t.deadline)?;
    let od = t.deadline - rw;
    let rm_bound = if t.deadline_only { t.deadline } else { od };
    let rm = response_time_from(t.mandatory, rm_start, hp, rm_bound)?;
    hp.push(t.interference());
    Ok(BinFix {
        mandatory_response: rm,
        windup_response: rw,
        optional_deadline: od,
    })
}

/// Generalized single-CPU RMWP analysis over priority-ordered entries
/// (highest priority first): the walk the admission engine's probes make,
/// entered at the top with no warm values.
///
/// The math is exactly [`RmwpAnalysis::analyze_with_order`]'s, but each
/// entry carries an explicit `(arrival, deadline)` pair instead of one
/// period: interference from higher-priority entries is charged at their
/// `arrival` rate, while each entry's own bounds use its `deadline`. With
/// `arrival == deadline` for every entry the results are identical to the
/// classic analysis, which is what keeps the plain partitioned policy
/// byte-for-byte unchanged.
///
/// Returns the fixpoints in input order.
///
/// # Errors
///
/// The index of the first entry whose mandatory or wind-up part misses
/// its bound.
pub fn analyze_ordered(tasks: &[BinTask]) -> Result<Vec<BinFix>, usize> {
    let mut hp = Vec::with_capacity(tasks.len());
    tasks
        .iter()
        .enumerate()
        .map(|(rank, t)| solve_next(&mut hp, t, None).map_err(|_| rank))
        .collect()
}

/// Which real-time part failed the schedulability test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnschedulablePart {
    /// The mandatory part cannot be guaranteed to complete by the optional
    /// deadline.
    Mandatory,
    /// The wind-up part cannot be guaranteed to complete by the deadline.
    Windup,
}

impl fmt::Display for UnschedulablePart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnschedulablePart::Mandatory => write!(f, "mandatory"),
            UnschedulablePart::Windup => write!(f, "wind-up"),
        }
    }
}

/// Error from [`RmwpAnalysis::analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RmwpError {
    /// A real-time part misses its bound; the task set is not RMWP-
    /// schedulable on one processor.
    Unschedulable {
        /// The offending task.
        task: TaskId,
        /// Which part failed.
        part: UnschedulablePart,
        /// The underlying RTA failure.
        source: RtaError,
    },
}

impl fmt::Display for RmwpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmwpError::Unschedulable { task, part, .. } => {
                write!(f, "task {task} is unschedulable: {part} part misses its bound")
            }
        }
    }
}

impl std::error::Error for RmwpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RmwpError::Unschedulable { source, .. } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::TaskSpec;

    fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(period_ms))
            .mandatory(Span::from_millis(m_ms))
            .windup(Span::from_millis(w_ms));
        if w_ms > 0 {
            b.optional_part(Span::from_millis(period_ms));
        }
        b.build().unwrap()
    }

    #[test]
    fn single_task_matches_paper_formula() {
        // §V-A: OD₁ = D₁ − w₁.
        let set = TaskSet::new(vec![task("τ1", 1000, 250, 250)]).unwrap();
        let a = RmwpAnalysis::analyze(&set).unwrap();
        assert_eq!(a.optional_deadline(TaskId(0)), Span::from_millis(750));
        assert_eq!(a.mandatory_response(TaskId(0)), Span::from_millis(250));
        assert_eq!(a.windup_response(TaskId(0)), Span::from_millis(250));
        assert_eq!(a.guaranteed_optional_window(TaskId(0)), Span::from_millis(500));
    }

    #[test]
    fn two_task_interference_shrinks_od() {
        // τ1 = (T 100, m 10, w 10) τ2 = (T 1000, m 100, w 100).
        let set = TaskSet::new(vec![
            task("τ1", 100, 10, 10),
            task("τ2", 1000, 100, 100),
        ])
        .unwrap();
        let a = RmwpAnalysis::analyze(&set).unwrap();
        // τ1 is highest priority: OD = 100 − 10 = 90.
        assert_eq!(a.optional_deadline(TaskId(0)), Span::from_millis(90));
        // τ2 wind-up: R = 100 + ⌈R/100⌉·20 → 100+40... fixpoint:
        // R0=100 → 100+20·⌈100/100⌉=120 → 100+20·⌈120/100⌉=140 →
        // 100+20·⌈140/100⌉=140. OD = 1000 − 140 = 860.
        assert_eq!(a.windup_response(TaskId(1)), Span::from_millis(140));
        assert_eq!(a.optional_deadline(TaskId(1)), Span::from_millis(860));
        // Mandatory response is the same fixpoint shape: 140 ≤ 860. OK.
        assert_eq!(a.mandatory_response(TaskId(1)), Span::from_millis(140));
    }

    #[test]
    fn rm_order_is_priority_order() {
        let set = TaskSet::new(vec![
            task("slow", 1000, 10, 10),
            task("fast", 10, 1, 1),
        ])
        .unwrap();
        let a = RmwpAnalysis::analyze(&set).unwrap();
        assert_eq!(a.rm_order(), &[TaskId(1), TaskId(0)]);
    }

    #[test]
    fn unschedulable_windup_detected() {
        // Higher-priority task saturates the processor so the low-priority
        // wind-up cannot fit: τ1 = (10, 5, 4) U=0.9, τ2 = (100, 10, 10).
        let set = TaskSet::new(vec![
            task("τ1", 10, 5, 4),
            task("τ2", 100, 10, 10),
        ])
        .unwrap();
        let err = RmwpAnalysis::analyze(&set).unwrap_err();
        let RmwpError::Unschedulable { task: t, .. } = err;
        assert_eq!(t, TaskId(1));
    }

    #[test]
    fn mandatory_must_meet_optional_deadline() {
        // Construct a set where the wind-up fits but the mandatory part
        // cannot finish by OD: m huge, w tiny, heavy interference.
        // τ1 = (T 10, m 4, w 4): U = 0.8.
        // τ2 = (T 20, m 9, w 1): wind-up R = 1 + 8·⌈R/10⌉ → 9; OD = 11.
        // mandatory R: 9 + 8·⌈R/10⌉ → 9+8=17 → 9+16=25 > 11 → fail.
        let set = TaskSet::new(vec![task("τ1", 10, 4, 4), task("τ2", 20, 9, 1)]).unwrap();
        let err = RmwpAnalysis::analyze(&set).unwrap_err();
        let RmwpError::Unschedulable { task: t, part, .. } = err;
        assert_eq!(t, TaskId(1));
        assert_eq!(part, UnschedulablePart::Mandatory);
    }

    #[test]
    fn plain_rm_task_without_windup_uses_full_deadline() {
        // A classic Liu–Layland task (no optional, no wind-up) must be
        // admitted against D, not against OD = D − 0 (identical here, but
        // the code path differs).
        let plain = TaskSpec::builder("plain")
            .period(Span::from_millis(10))
            .mandatory(Span::from_millis(9))
            .build()
            .unwrap();
        let set = TaskSet::new(vec![plain]).unwrap();
        let a = RmwpAnalysis::analyze(&set).unwrap();
        assert_eq!(a.optional_deadline(TaskId(0)), Span::from_millis(10));
        assert_eq!(a.mandatory_response(TaskId(0)), Span::from_millis(9));
    }

    #[test]
    fn optional_parts_do_not_affect_analysis() {
        // Theorem 1/2: np must not change OD.
        let a1 = {
            let set = TaskSet::new(vec![task("τ1", 1000, 250, 250)]).unwrap();
            RmwpAnalysis::analyze(&set).unwrap()
        };
        let a2 = {
            let t = task("τ1", 1000, 250, 250).with_optional_parts(228, Span::from_secs(5));
            let set = TaskSet::new(vec![t]).unwrap();
            RmwpAnalysis::analyze(&set).unwrap()
        };
        assert_eq!(
            a1.optional_deadline(TaskId(0)),
            a2.optional_deadline(TaskId(0))
        );
    }

    #[test]
    fn error_display_and_source() {
        let set = TaskSet::new(vec![task("τ1", 10, 5, 4), task("τ2", 100, 10, 10)]).unwrap();
        let err = RmwpAnalysis::analyze(&set).unwrap_err();
        assert!(err.to_string().contains("unschedulable"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn analyze_ordered_matches_classic_analysis_for_plain_entries() {
        let set = TaskSet::new(vec![
            task("τ1", 100, 10, 10),
            task("τ2", 1000, 100, 100),
            task("τ3", 400, 30, 0),
        ])
        .unwrap();
        let order = set.rm_order();
        let classic = RmwpAnalysis::analyze_with_order(&set, order.clone()).unwrap();
        let bins: Vec<BinTask> = order
            .iter()
            .map(|&id| {
                let s = set.task(id);
                BinTask {
                    arrival: s.period(),
                    deadline: s.deadline(),
                    mandatory: s.mandatory(),
                    windup: s.windup(),
                    deadline_only: s.windup().is_zero() && s.optional_count() == 0,
                }
            })
            .collect();
        let fix = analyze_ordered(&bins).unwrap();
        for (rank, &id) in order.iter().enumerate() {
            assert_eq!(fix[rank].mandatory_response, classic.mandatory_response(id));
            assert_eq!(fix[rank].windup_response, classic.windup_response(id));
            assert_eq!(fix[rank].optional_deadline, classic.optional_deadline(id));
        }
    }

    #[test]
    fn split_arrival_charges_less_interference() {
        // A split subtask arriving every 2T interferes less than a whole
        // task with period T and the same demand.
        let whole = BinTask {
            arrival: Span::from_millis(100),
            deadline: Span::from_millis(100),
            mandatory: Span::from_millis(60),
            windup: Span::ZERO,
            deadline_only: true,
        };
        let split = BinTask {
            arrival: Span::from_millis(200),
            deadline: Span::from_millis(100),
            ..whole
        };
        let low = BinTask {
            arrival: Span::from_millis(400),
            deadline: Span::from_millis(400),
            mandatory: Span::from_millis(200),
            windup: Span::ZERO,
            deadline_only: true,
        };
        // With the whole task: R = 200 + 60·⌈R/100⌉ crosses 400.
        assert_eq!(analyze_ordered(&[whole, low]), Err(1));
        // With the 2T split arrival: R = 200 + 60·⌈R/200⌉ → 320 ≤ 400.
        let fix = analyze_ordered(&[split, low]).unwrap();
        assert_eq!(fix[1].mandatory_response, Span::from_millis(320));
        // The split entry itself is still bounded by its T deadline.
        assert_eq!(fix[0].mandatory_response, Span::from_millis(60));
    }

    #[test]
    fn analyze_ordered_reports_failing_rank() {
        let over = BinTask {
            arrival: Span::from_millis(10),
            deadline: Span::from_millis(10),
            mandatory: Span::from_millis(8),
            windup: Span::from_millis(4),
            deadline_only: false,
        };
        assert_eq!(analyze_ordered(&[over]), Err(0));
    }

    #[test]
    fn harmonic_set_fully_schedulable() {
        let set = TaskSet::new(vec![
            task("a", 100, 20, 20),
            task("b", 200, 20, 20),
            task("c", 400, 20, 20),
        ])
        .unwrap();
        let a = RmwpAnalysis::analyze(&set).unwrap();
        for id in set.ids() {
            assert!(a.optional_deadline(id) > Span::ZERO);
            assert!(a.mandatory_response(id) <= a.optional_deadline(id));
        }
    }
}
