//! The parallel-extended imprecise computation task model (paper §II-A).

use core::fmt;

use crate::ids::TaskId;
use crate::time::Span;

/// Static description of one parallel-extended imprecise task τᵢ.
///
/// Invariants enforced at construction:
///
/// * `period > 0` and `deadline == period` (implicit-deadline model, §II-A);
/// * `mandatory + windup ≤ period` (otherwise even an idle system cannot
///   schedule the task);
/// * at least one optional part may have zero parts (`np_i = 0` is a plain
///   Liu–Layland task with a split WCET).
///
/// # Examples
///
/// ```
/// use rtseed_model::{Span, TaskSpec};
/// let t = TaskSpec::builder("τ1")
///     .period(Span::from_secs(1))
///     .mandatory(Span::from_millis(250))
///     .windup(Span::from_millis(250))
///     .optional_parts(4, Span::from_secs(1))
///     .build()?;
/// assert_eq!(t.wcet(), Span::from_millis(500));
/// assert_eq!(t.optional_count(), 4);
/// # Ok::<(), rtseed_model::TaskSetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    name: String,
    period: Span,
    mandatory: Span,
    windup: Span,
    optional: Vec<Span>,
}

impl TaskSpec {
    /// Starts building a task with the given human-readable name.
    pub fn builder(name: impl Into<String>) -> TaskSpecBuilder {
        TaskSpecBuilder {
            name: name.into(),
            period: None,
            mandatory: Span::ZERO,
            windup: Span::ZERO,
            optional: Vec::new(),
        }
    }

    /// The task's human-readable name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Period Tᵢ.
    #[inline]
    pub fn period(&self) -> Span {
        self.period
    }

    /// Relative deadline Dᵢ (equal to the period in this model).
    #[inline]
    pub fn deadline(&self) -> Span {
        self.period
    }

    /// WCET of the mandatory part, mᵢ.
    #[inline]
    pub fn mandatory(&self) -> Span {
        self.mandatory
    }

    /// WCET of the wind-up part, wᵢ.
    #[inline]
    pub fn windup(&self) -> Span {
        self.windup
    }

    /// Total real-time WCET `Cᵢ = mᵢ + wᵢ` (optional parts excluded, §II-A).
    #[inline]
    pub fn wcet(&self) -> Span {
        self.mandatory + self.windup
    }

    /// Execution times of the parallel optional parts `oᵢ,ₖ`.
    #[inline]
    pub fn optional_parts(&self) -> &[Span] {
        &self.optional
    }

    /// Number of parallel optional parts, npᵢ.
    #[inline]
    pub fn optional_count(&self) -> usize {
        self.optional.len()
    }

    /// Real-time utilization `Uᵢ = Cᵢ / Tᵢ`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.wcet() / self.period
    }

    /// Optional utilization `Uᵢᵒ = Σₖ oᵢ,ₖ / Tᵢ` (QoS side only).
    #[inline]
    pub fn optional_utilization(&self) -> f64 {
        self.optional.iter().copied().sum::<Span>() / self.period
    }

    /// Returns a copy with a different number of homogeneous optional parts,
    /// preserving everything else. Useful for the paper's np sweep
    /// (np ∈ {4, 8, 16, 32, 57, 114, 171, 228}).
    pub fn with_optional_parts(&self, count: usize, each: Span) -> TaskSpec {
        TaskSpec {
            name: self.name.clone(),
            period: self.period,
            mandatory: self.mandatory,
            windup: self.windup,
            optional: vec![each; count],
        }
    }
}

impl fmt::Display for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(T={}, m={}, w={}, np={})",
            self.name,
            self.period,
            self.mandatory,
            self.windup,
            self.optional.len()
        )
    }
}

/// Builder for [`TaskSpec`] (C-BUILDER, non-consuming).
#[derive(Debug, Clone)]
pub struct TaskSpecBuilder {
    name: String,
    period: Option<Span>,
    mandatory: Span,
    windup: Span,
    optional: Vec<Span>,
}

impl TaskSpecBuilder {
    /// Sets the period Tᵢ (and hence the implicit deadline Dᵢ).
    pub fn period(&mut self, period: Span) -> &mut Self {
        self.period = Some(period);
        self
    }

    /// Sets the mandatory-part WCET mᵢ.
    pub fn mandatory(&mut self, m: Span) -> &mut Self {
        self.mandatory = m;
        self
    }

    /// Sets the wind-up part WCET wᵢ.
    pub fn windup(&mut self, w: Span) -> &mut Self {
        self.windup = w;
        self
    }

    /// Adds `count` homogeneous parallel optional parts of execution time
    /// `each` (the paper's evaluation uses identical `o₁,ₖ = o₁`).
    pub fn optional_parts(&mut self, count: usize, each: Span) -> &mut Self {
        self.optional.extend(std::iter::repeat_n(each, count));
        self
    }

    /// Adds a single optional part with the given execution time.
    pub fn optional_part(&mut self, o: Span) -> &mut Self {
        self.optional.push(o);
        self
    }

    /// Validates and builds the [`TaskSpec`].
    ///
    /// # Errors
    ///
    /// * [`TaskSetError::ZeroPeriod`] if no positive period was given;
    /// * [`TaskSetError::WcetExceedsPeriod`] if `mᵢ + wᵢ > Tᵢ`;
    /// * [`TaskSetError::ZeroWindup`] if wind-up is zero while optional
    ///   parts exist (the extended model *requires* a wind-up part to
    ///   guarantee termination schedulability, §I);
    /// * [`TaskSetError::ZeroMandatory`] if the mandatory part is zero.
    pub fn build(&self) -> Result<TaskSpec, TaskSetError> {
        let period = self.period.unwrap_or(Span::ZERO);
        if period.is_zero() {
            return Err(TaskSetError::ZeroPeriod {
                task: self.name.clone(),
            });
        }
        if self.mandatory.is_zero() {
            return Err(TaskSetError::ZeroMandatory {
                task: self.name.clone(),
            });
        }
        if !self.optional.is_empty() && self.windup.is_zero() {
            return Err(TaskSetError::ZeroWindup {
                task: self.name.clone(),
            });
        }
        let wcet = self
            .mandatory
            .checked_add(self.windup)
            .ok_or_else(|| TaskSetError::WcetExceedsPeriod {
                task: self.name.clone(),
            })?;
        if wcet > period {
            return Err(TaskSetError::WcetExceedsPeriod {
                task: self.name.clone(),
            });
        }
        Ok(TaskSpec {
            name: self.name.clone(),
            period,
            mandatory: self.mandatory,
            windup: self.windup,
            optional: self.optional.clone(),
        })
    }
}

/// A validated synchronous periodic task set Γ (paper §II-A).
///
/// Tasks keep their insertion order; [`TaskId`]s index into it. Rate
/// Monotonic *rank* (shorter period first) is computed by the analysis
/// crate, not stored here.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<TaskSpec>,
}

impl TaskSet {
    /// Creates a task set from the given tasks.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSetError::Empty`] if `tasks` is empty.
    pub fn new(tasks: Vec<TaskSpec>) -> Result<TaskSet, TaskSetError> {
        if tasks.is_empty() {
            return Err(TaskSetError::Empty);
        }
        Ok(TaskSet { tasks })
    }

    /// Number of tasks n.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `false`: a constructed task set is never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.index()]
    }

    /// Fallible lookup.
    #[inline]
    pub fn get(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.get(id.index())
    }

    /// Iterates over `(TaskId, &TaskSpec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// All task ids.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + use<> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Total real-time utilization `Σ Uᵢ` (NOT divided by M; the paper's
    /// system utilization is `U = (1/M) Σ Uᵢ`).
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(TaskSpec::utilization).sum()
    }

    /// Task ids sorted in Rate Monotonic order (shortest period first; ties
    /// broken by insertion order, which makes the order deterministic).
    pub fn rm_order(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.ids().collect();
        ids.sort_by_key(|id| (self.task(*id).period(), id.0));
        ids
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a TaskSpec;
    type IntoIter = std::slice::Iter<'a, TaskSpec>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

/// Errors produced while constructing task specifications or sets.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaskSetError {
    /// The task set contained no tasks.
    Empty,
    /// A task had a zero period.
    ZeroPeriod {
        /// Offending task name.
        task: String,
    },
    /// A task had a zero mandatory part.
    ZeroMandatory {
        /// Offending task name.
        task: String,
    },
    /// A task declared optional parts but no wind-up part.
    ZeroWindup {
        /// Offending task name.
        task: String,
    },
    /// `mᵢ + wᵢ` exceeded the period.
    WcetExceedsPeriod {
        /// Offending task name.
        task: String,
    },
}

impl fmt::Display for TaskSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSetError::Empty => write!(f, "task set is empty"),
            TaskSetError::ZeroPeriod { task } => {
                write!(f, "task `{task}` has a zero period")
            }
            TaskSetError::ZeroMandatory { task } => {
                write!(f, "task `{task}` has a zero mandatory part")
            }
            TaskSetError::ZeroWindup { task } => write!(
                f,
                "task `{task}` has optional parts but a zero wind-up part"
            ),
            TaskSetError::WcetExceedsPeriod { task } => {
                write!(f, "task `{task}` has mandatory + wind-up exceeding its period")
            }
        }
    }
}

impl std::error::Error for TaskSetError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_task(np: usize) -> TaskSpec {
        TaskSpec::builder("τ1")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(250))
            .windup(Span::from_millis(250))
            .optional_parts(np, Span::from_secs(1))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_paper_evaluation_task() {
        let t = paper_task(57);
        assert_eq!(t.period(), Span::from_secs(1));
        assert_eq!(t.deadline(), t.period());
        assert_eq!(t.wcet(), Span::from_millis(500));
        assert_eq!(t.optional_count(), 57);
        assert!((t.utilization() - 0.5).abs() < 1e-12);
        assert!((t.optional_utilization() - 57.0).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_zero_period() {
        let err = TaskSpec::builder("t").mandatory(Span::from_millis(1)).build();
        assert_eq!(
            err.unwrap_err(),
            TaskSetError::ZeroPeriod { task: "t".into() }
        );
    }

    #[test]
    fn builder_rejects_zero_mandatory() {
        let err = TaskSpec::builder("t").period(Span::from_secs(1)).build();
        assert!(matches!(err, Err(TaskSetError::ZeroMandatory { .. })));
    }

    #[test]
    fn builder_rejects_optional_without_windup() {
        let err = TaskSpec::builder("t")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(1))
            .optional_part(Span::from_millis(1))
            .build();
        assert!(matches!(err, Err(TaskSetError::ZeroWindup { .. })));
    }

    #[test]
    fn builder_rejects_overlong_wcet() {
        let err = TaskSpec::builder("t")
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(80))
            .windup(Span::from_millis(30))
            .build();
        assert!(matches!(err, Err(TaskSetError::WcetExceedsPeriod { .. })));
    }

    #[test]
    fn builder_allows_pure_liu_layland_task() {
        // np = 0, w = 0 degenerates to the classic model.
        let t = TaskSpec::builder("ll")
            .period(Span::from_millis(10))
            .mandatory(Span::from_millis(3))
            .build()
            .unwrap();
        assert_eq!(t.optional_count(), 0);
        assert_eq!(t.wcet(), Span::from_millis(3));
    }

    #[test]
    fn with_optional_parts_sweeps_np() {
        let base = paper_task(4);
        for np in [4usize, 8, 16, 32, 57, 114, 171, 228] {
            let t = base.with_optional_parts(np, Span::from_secs(1));
            assert_eq!(t.optional_count(), np);
            assert_eq!(t.wcet(), base.wcet());
        }
    }

    #[test]
    fn task_set_rejects_empty() {
        assert_eq!(TaskSet::new(vec![]).unwrap_err(), TaskSetError::Empty);
    }

    #[test]
    fn task_set_accessors() {
        let set = TaskSet::new(vec![paper_task(2), paper_task(4)]).unwrap();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.task(TaskId(1)).optional_count(), 4);
        assert!(set.get(TaskId(2)).is_none());
        assert_eq!(set.iter().count(), 2);
        assert_eq!(set.ids().count(), 2);
        assert_eq!((&set).into_iter().count(), 2);
    }

    #[test]
    fn utilization_sums() {
        let set = TaskSet::new(vec![paper_task(1), paper_task(1)]).unwrap();
        assert!((set.total_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rm_order_sorts_by_period_then_index() {
        let a = TaskSpec::builder("a")
            .period(Span::from_millis(20))
            .mandatory(Span::from_millis(1))
            .build()
            .unwrap();
        let b = TaskSpec::builder("b")
            .period(Span::from_millis(10))
            .mandatory(Span::from_millis(1))
            .build()
            .unwrap();
        let c = TaskSpec::builder("c")
            .period(Span::from_millis(10))
            .mandatory(Span::from_millis(1))
            .build()
            .unwrap();
        let set = TaskSet::new(vec![a, b, c]).unwrap();
        assert_eq!(set.rm_order(), vec![TaskId(1), TaskId(2), TaskId(0)]);
    }

    #[test]
    fn display_is_informative() {
        let t = paper_task(3);
        let s = t.to_string();
        assert!(s.contains("τ1"), "{s}");
        assert!(s.contains("np=3"), "{s}");
    }
}
