//! System configuration: everything P-RMWP computes *offline* before any
//! job runs (paper §IV-B).
//!
//! Building a [`SystemConfig`] performs, in order:
//!
//! 1. partitioned placement of every task's mandatory thread onto a
//!    hardware thread (tasks never migrate once placed),
//! 2. the RMWP schedulability test and **optional deadline** calculation
//!    for every partition,
//! 3. SCHED_FIFO priority assignment (HPQ 99 / RTQ 50–98 / NRTQ 1–49),
//! 4. assignment-policy placement of every task's parallel optional parts.

use core::fmt;

use rtseed_analysis::partition::{
    Partition, PartitionError, PartitionHeuristic, PlacementPolicy,
};
use rtseed_model::{HwThreadId, Span, TaskId, TaskSet, Topology};

use crate::policy::AssignmentPolicy;
use crate::priority::{PriorityMap, PriorityMapError};

/// A fully validated, ready-to-run system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    set: TaskSet,
    topology: Topology,
    policy: AssignmentPolicy,
    placement: PlacementPolicy,
    partition: Partition,
    priorities: PriorityMap,
    placements: Vec<Vec<HwThreadId>>,
}

impl SystemConfig {
    /// Builds a configuration with the default partition heuristic
    /// (first-fit decreasing, which pins a single task to hardware thread
    /// 0 exactly like the paper's evaluation setup).
    ///
    /// # Errors
    ///
    /// See [`SystemConfig::build_with_heuristic`].
    pub fn build(
        set: TaskSet,
        topology: Topology,
        policy: AssignmentPolicy,
    ) -> Result<SystemConfig, ConfigError> {
        Self::build_with_heuristic(set, topology, policy, PartitionHeuristic::FirstFitDecreasing)
    }

    /// Builds a configuration with an explicit partition heuristic.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Partition`] if some task fits on no hardware
    ///   thread (RMWP-unschedulable partition);
    /// * [`ConfigError::Priority`] if the set needs more than the 49
    ///   distinct RTQ levels.
    pub fn build_with_heuristic(
        set: TaskSet,
        topology: Topology,
        policy: AssignmentPolicy,
        heuristic: PartitionHeuristic,
    ) -> Result<SystemConfig, ConfigError> {
        Self::build_with_placement(set, topology, policy, heuristic, PlacementPolicy::default())
    }

    /// Builds a configuration under an explicit [`PlacementPolicy`]. With
    /// [`PlacementPolicy::Partitioned`] this is exactly
    /// [`SystemConfig::build_with_heuristic`]; the semi-partitioned and
    /// semi-federated members only diverge on tasks plain placement
    /// rejects, splitting them across two CPUs or granting a dedicated
    /// core to their parallel phase.
    ///
    /// # Errors
    ///
    /// As [`SystemConfig::build_with_heuristic`].
    pub fn build_with_placement(
        set: TaskSet,
        topology: Topology,
        policy: AssignmentPolicy,
        heuristic: PartitionHeuristic,
        placement: PlacementPolicy,
    ) -> Result<SystemConfig, ConfigError> {
        // Priorities first: the admission test must see the *deployed*
        // order (RM-US HPQ tasks outrank everything, then RM), or a heavy
        // long-period task at level 99 could preempt a short-period task
        // the analysis believed safe.
        let priorities = PriorityMap::assign(&set, topology.hw_threads() as usize)?;
        let mut order: Vec<rtseed_model::TaskId> = set.ids().collect();
        order.sort_by_key(|&id| {
            (
                std::cmp::Reverse(priorities.mandatory(id).level()),
                set.task(id).period(),
                id.0,
            )
        });
        let partition =
            Partition::compute_with_policy(&set, &topology, heuristic, order, placement)?;
        let placements = set
            .iter()
            .map(|(id, spec)| {
                let granted = partition.granted_core_of(id);
                policy
                    .placements_or_granted(&topology, spec.optional_count(), granted)
                    .collect()
            })
            .collect();
        Ok(SystemConfig {
            set,
            topology,
            policy,
            placement,
            partition,
            priorities,
            placements,
        })
    }

    /// The task set.
    #[inline]
    pub fn set(&self) -> &TaskSet {
        &self.set
    }

    /// The machine topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The optional-part assignment policy.
    #[inline]
    pub fn policy(&self) -> AssignmentPolicy {
        self.policy
    }

    /// The placement policy the partitioner ran under.
    #[inline]
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.placement
    }

    /// The partitioned placement (mandatory threads → hardware threads).
    #[inline]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The SCHED_FIFO priority assignment.
    #[inline]
    pub fn priorities(&self) -> &PriorityMap {
        &self.priorities
    }

    /// The hardware thread hosting `task`'s mandatory/wind-up thread.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn mandatory_hw(&self, task: TaskId) -> HwThreadId {
        self.partition.hw_thread_of(task)
    }

    /// The second host CPU of a semi-partitioned split task (odd-numbered
    /// jobs run wholly there), or `None` for whole/federated tasks.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn secondary_hw(&self, task: TaskId) -> Option<HwThreadId> {
        self.partition.secondary_of(task)
    }

    /// The dedicated core granted to a semi-federated task's parallel
    /// phase (wind-up + optional parts run there at top band priority),
    /// or `None` for whole/split tasks.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn granted_hw(&self, task: TaskId) -> Option<HwThreadId> {
        self.partition.granted_core_of(task)
    }

    /// The relative optional deadline `ODᵢ` computed for `task` within its
    /// partition.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn optional_deadline(&self, task: TaskId) -> Span {
        self.partition.optional_deadline(task)
    }

    /// The hardware thread of each parallel optional part of `task`, in
    /// part order (computed by the assignment policy; parts migrate to
    /// these processors *before* execution and never afterwards, §IV-B).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn optional_placements(&self, task: TaskId) -> &[HwThreadId] {
        &self.placements[task.index()]
    }
}

/// Error from building a [`SystemConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Partitioned placement failed.
    Partition(PartitionError),
    /// Priority assignment failed.
    Priority(PriorityMapError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Partition(e) => write!(f, "partitioning failed: {e}"),
            ConfigError::Priority(e) => write!(f, "priority assignment failed: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Partition(e) => Some(e),
            ConfigError::Priority(e) => Some(e),
        }
    }
}

impl From<PartitionError> for ConfigError {
    fn from(e: PartitionError) -> Self {
        ConfigError::Partition(e)
    }
}

impl From<PriorityMapError> for ConfigError {
    fn from(e: PriorityMapError) -> Self {
        ConfigError::Priority(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::TaskSpec;

    fn paper_task(np: usize) -> TaskSet {
        let t = TaskSpec::builder("τ1")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(250))
            .windup(Span::from_millis(250))
            .optional_parts(np, Span::from_secs(1))
            .build()
            .unwrap();
        TaskSet::new(vec![t]).unwrap()
    }

    #[test]
    fn paper_setup_pins_task_to_hw0() {
        let cfg = SystemConfig::build(
            paper_task(57),
            Topology::xeon_phi_3120a(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        // §V-A: "The mandatory and wind-up parts of task τ1 are executed on
        // hardware thread ID 0 of core ID 0".
        assert_eq!(cfg.mandatory_hw(TaskId(0)), HwThreadId(0));
        assert_eq!(cfg.optional_deadline(TaskId(0)), Span::from_millis(750));
        assert_eq!(cfg.optional_placements(TaskId(0)).len(), 57);
    }

    #[test]
    fn placements_follow_policy() {
        let cfg = SystemConfig::build(
            paper_task(171),
            Topology::xeon_phi_3120a(),
            AssignmentPolicy::AllByAll,
        )
        .unwrap();
        let placed = cfg.optional_placements(TaskId(0));
        assert_eq!(
            placed,
            AssignmentPolicy::AllByAll
                .placements(&Topology::xeon_phi_3120a(), 171)
                .as_slice()
        );
    }

    #[test]
    fn first_optional_part_shares_mandatory_processor() {
        // §IV-C: "the first parallel optional thread is executed on the
        // processor that executes the mandatory thread" — with the task
        // pinned to H0 and any paper policy starting at C0 slot 0, part 0
        // lands on H0.
        for policy in AssignmentPolicy::PAPER_POLICIES {
            let cfg =
                SystemConfig::build(paper_task(8), Topology::xeon_phi_3120a(), policy).unwrap();
            assert_eq!(
                cfg.optional_placements(TaskId(0))[0],
                cfg.mandatory_hw(TaskId(0)),
                "{policy}"
            );
        }
    }

    #[test]
    fn error_paths_surface() {
        // Unschedulable: U = 1.2 task cannot exist (builder rejects), so
        // use two tasks of 0.8 on a uniprocessor.
        let mk = |name: &str| {
            TaskSpec::builder(name)
                .period(Span::from_millis(100))
                .mandatory(Span::from_millis(40))
                .windup(Span::from_millis(40))
                .build()
                .unwrap()
        };
        let set = TaskSet::new(vec![mk("a"), mk("b")]).unwrap();
        let err = SystemConfig::build(
            set,
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::Partition(_)));
        assert!(err.to_string().contains("partitioning failed"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn accessors() {
        let cfg = SystemConfig::build(
            paper_task(4),
            Topology::xeon_phi_3120a(),
            AssignmentPolicy::TwoByTwo,
        )
        .unwrap();
        assert_eq!(cfg.set().len(), 1);
        assert_eq!(cfg.topology().hw_threads(), 228);
        assert_eq!(cfg.policy(), AssignmentPolicy::TwoByTwo);
        assert_eq!(cfg.partition().used_threads(), 1);
        // U = 0.5 > 228/682: the paper task is an HPQ (RM-US) task.
        assert_eq!(cfg.priorities().hpq_tasks(), &[TaskId(0)]);
    }
}
