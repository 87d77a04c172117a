//! SCHED_FIFO priority assignment (paper §IV-B).
//!
//! * Priority 99 (**HPQ**) is reserved for "the highest priority task" —
//!   RT-Seed uses the RM-US rule (footnote 1): a task whose utilization
//!   exceeds `M/(3M−2)` is pinned to the HPQ.
//! * Mandatory (and wind-up) threads occupy **RTQ** levels 50–98 in Rate
//!   Monotonic order (shorter period ⇒ higher level).
//! * Parallel optional threads occupy **NRTQ** levels 1–49, always exactly
//!   49 below their mandatory thread (paper: mandatory 90 ⇒ optional 41).
//! * The **SQ** (sleep queue) is not a priority level: a task whose optional
//!   parts all finish early sleeps there until its optional deadline
//!   releases the wind-up part. Each hardware thread's HPQ/RTQ/NRTQ bands
//!   live in one `rtseed_sim::FifoReadyQueue`.

use core::fmt;

use rtseed_analysis::bounds::rmus_threshold;
use rtseed_model::{Priority, TaskId, TaskSet};

/// Computed priority assignment for a task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityMap {
    mandatory: Vec<Priority>,
    optional: Vec<Priority>,
    hpq: Vec<TaskId>,
}

impl PriorityMap {
    /// Assigns priorities for `set` on `m` processors.
    ///
    /// Tasks with `Uᵢ > M/(3M−2)` go to the HPQ (level 99, optional
    /// threads at 50 − 49 = ... the top optional level 49). The rest are
    /// ranked Rate Monotonically from level 98 downwards.
    ///
    /// # Errors
    ///
    /// [`PriorityMapError::TooManyTasks`] if more than 49 non-HPQ tasks
    /// would be needed (the RTQ band has exactly 49 levels and RT-Seed
    /// assigns distinct levels so FIFO order within a level never masks RM
    /// order).
    pub fn assign(set: &TaskSet, m: usize) -> Result<PriorityMap, PriorityMapError> {
        let threshold = rmus_threshold(m);
        let mut mandatory = vec![Priority::RTQ_MIN; set.len()];
        let mut optional = vec![Priority::NRTQ_MIN; set.len()];
        let mut hpq = Vec::new();

        let mut rank = 0u8;
        for id in set.rm_order() {
            let spec = set.task(id);
            if spec.utilization() > threshold {
                hpq.push(id);
                mandatory[id.index()] = Priority::HPQ;
                // The HPQ task's optional threads sit at the top of the
                // optional band, above every other task's optional threads.
                optional[id.index()] = Priority::NRTQ_MAX;
            } else {
                let level = 98u8
                    .checked_sub(rank)
                    .filter(|l| *l >= 50)
                    .ok_or(PriorityMapError::TooManyTasks { tasks: set.len() })?;
                let p = Priority::new(level).expect("50..=98 is valid");
                mandatory[id.index()] = p;
                optional[id.index()] =
                    p.optional_counterpart().expect("mandatory band");
                rank += 1;
            }
        }

        Ok(PriorityMap {
            mandatory,
            optional,
            hpq,
        })
    }

    /// The mandatory/wind-up thread priority of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn mandatory(&self, task: TaskId) -> Priority {
        self.mandatory[task.index()]
    }

    /// The parallel-optional-thread priority of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn optional(&self, task: TaskId) -> Priority {
        self.optional[task.index()]
    }

    /// Tasks assigned to the HPQ (priority 99).
    #[inline]
    pub fn hpq_tasks(&self) -> &[TaskId] {
        &self.hpq
    }
}

/// Error from [`PriorityMap::assign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PriorityMapError {
    /// More tasks than distinct RTQ levels (49).
    TooManyTasks {
        /// Number of tasks in the set.
        tasks: usize,
    },
}

impl fmt::Display for PriorityMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityMapError::TooManyTasks { tasks } => write!(
                f,
                "{tasks} tasks exceed the 49 distinct RTQ priority levels (50-98)"
            ),
        }
    }
}

impl std::error::Error for PriorityMapError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::{Span, TaskSpec};

    fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(period_ms))
            .mandatory(Span::from_millis(m_ms))
            .windup(Span::from_millis(w_ms));
        b.build().unwrap()
    }

    #[test]
    fn rm_order_maps_to_descending_levels() {
        let set = TaskSet::new(vec![
            task("slow", 1000, 10, 10),
            task("fast", 10, 1, 1),
            task("mid", 100, 5, 5),
        ])
        .unwrap();
        let map = PriorityMap::assign(&set, 228).unwrap();
        // fast (rank 0) → 98, mid → 97, slow → 96.
        assert_eq!(map.mandatory(TaskId(1)).level(), 98);
        assert_eq!(map.mandatory(TaskId(2)).level(), 97);
        assert_eq!(map.mandatory(TaskId(0)).level(), 96);
    }

    #[test]
    fn optional_is_exactly_49_below() {
        let set = TaskSet::new(vec![task("a", 100, 10, 10), task("b", 200, 10, 10)]).unwrap();
        let map = PriorityMap::assign(&set, 4).unwrap();
        for id in set.ids() {
            assert_eq!(
                map.mandatory(id).level() - map.optional(id).level(),
                Priority::MANDATORY_OPTIONAL_GAP
            );
        }
    }

    #[test]
    fn heavy_task_goes_to_hpq() {
        // M = 228 ⇒ threshold = 228/682 ≈ 0.334; U = 0.5 exceeds it.
        let set = TaskSet::new(vec![
            task("heavy", 1000, 250, 250),
            task("light", 100, 1, 1),
        ])
        .unwrap();
        let map = PriorityMap::assign(&set, 228).unwrap();
        assert_eq!(map.hpq_tasks(), &[TaskId(0)]);
        assert_eq!(map.mandatory(TaskId(0)), Priority::HPQ);
        assert_eq!(map.optional(TaskId(0)), Priority::NRTQ_MAX);
        // The light task is ranked normally.
        assert_eq!(map.mandatory(TaskId(1)).level(), 98);
    }

    #[test]
    fn uniprocessor_has_no_hpq_tasks() {
        // Threshold is 1.0 on one processor; nothing can exceed it.
        let set = TaskSet::new(vec![task("big", 100, 45, 45)]).unwrap();
        let map = PriorityMap::assign(&set, 1).unwrap();
        assert!(map.hpq_tasks().is_empty());
        assert_eq!(map.mandatory(TaskId(0)).level(), 98);
    }

    #[test]
    fn forty_nine_tasks_fit_fifty_do_not() {
        let mk = |n: usize| {
            TaskSet::new(
                (0..n)
                    .map(|i| task(&format!("t{i}"), 1000 + i as u64, 1, 1))
                    .collect(),
            )
            .unwrap()
        };
        assert!(PriorityMap::assign(&mk(49), 1).is_ok());
        let err = PriorityMap::assign(&mk(50), 1).unwrap_err();
        assert_eq!(err, PriorityMapError::TooManyTasks { tasks: 50 });
        assert!(err.to_string().contains("49 distinct"));
    }

    #[test]
    fn lowest_rank_gets_level_50() {
        let set = TaskSet::new(
            (0..49)
                .map(|i| task(&format!("t{i}"), 1000 + i as u64, 1, 1))
                .collect(),
        )
        .unwrap();
        let map = PriorityMap::assign(&set, 1).unwrap();
        assert_eq!(map.mandatory(TaskId(48)).level(), 50);
        assert_eq!(map.optional(TaskId(48)).level(), 1);
    }

    #[test]
    fn all_mandatory_above_all_optional() {
        let set = TaskSet::new(
            (0..10)
                .map(|i| task(&format!("t{i}"), 100 + i as u64 * 10, 2, 2))
                .collect(),
        )
        .unwrap();
        let map = PriorityMap::assign(&set, 4).unwrap();
        let min_mand = set.ids().map(|i| map.mandatory(i)).min().unwrap();
        let max_opt = set.ids().map(|i| map.optional(i)).max().unwrap();
        assert!(min_mand > max_opt);
    }
}
