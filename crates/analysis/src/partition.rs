//! Partitioned task assignment for P-RMWP (paper §IV-B).
//!
//! P-RMWP assigns every task's mandatory thread to one hardware thread
//! *offline*; mandatory and wind-up parts never migrate (§II-A, §IV-B).
//! A task fits on a hardware thread iff the tasks already there plus the
//! candidate are RMWP-schedulable together ([`crate::rmwp`]). This module
//! names the bin-packing heuristics and the placement-policy family; the
//! placement procedure itself lives in [`crate::admission`], and a
//! [`Partition`] is what one batch admission of the whole task set into
//! an empty [`AdmissionEngine`] decided.

use core::fmt;

use rtseed_model::{HwThreadId, Span, TaskId, TaskSet, TaskSpec, Topology};

use crate::admission::{AdmissionDecision, AdmissionEngine, PlacementKind, RejectReason};

/// Bin-packing heuristic for partitioned assignment. All heuristics
/// consider tasks in decreasing-utilization order (the "-decreasing"
/// variants known to dominate their plain counterparts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionHeuristic {
    /// First hardware thread that admits the task.
    FirstFitDecreasing,
    /// Admitting hardware thread with the least remaining utilization.
    BestFitDecreasing,
    /// Admitting hardware thread with the most remaining utilization
    /// (spreads load; leaves room for optional parts on SMT siblings).
    WorstFitDecreasing,
}

impl fmt::Display for PartitionHeuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PartitionHeuristic::FirstFitDecreasing => "first-fit-decreasing",
            PartitionHeuristic::BestFitDecreasing => "best-fit-decreasing",
            PartitionHeuristic::WorstFitDecreasing => "worst-fit-decreasing",
        };
        f.write_str(s)
    }
}

/// Which member of the placement-policy family decides where tasks run.
///
/// Every policy uses the same bin-packing heuristics and the same exact
/// RMWP admission test; they differ only in what happens when a task fits
/// on no single hardware thread whole:
///
/// * [`PlacementPolicy::Partitioned`] — plain P-RMWP: the task (and hence
///   its tenant) is rejected. This is the historical behaviour and the
///   default.
/// * [`PlacementPolicy::SemiPartitioned`] — restricted-migration task
///   splitting (Dorin et al.): the task is pinned to **two** CPUs and its
///   jobs alternate between them — even-numbered jobs run wholly on the
///   primary, odd-numbered jobs wholly on the secondary, so migration
///   happens only at job boundaries. On each host CPU the subtask arrives
///   every `2T` but keeps its `T` deadline (the split-aware RTA term).
/// * [`PlacementPolicy::SemiFederated`] — semi-federated scaling (Jiang
///   et al.): a task whose parallel optional parts exceed one core of
///   work (`Σₖ oᵢ,ₖ / Tᵢ ≥ 1`) is granted a core whose **top-priority
///   band** is reserved for its parallel phase (optional parts and the
///   wind-up that closes them), so its wind-up response is exactly `wᵢ`
///   and `ODᵢ = Tᵢ − wᵢ` regardless of bin contents. Its fractional
///   real-time residual — just the mandatory `mᵢ`, charged with deadline
///   `Tᵢ − wᵢ` — is packed by the partitioner into a shared bin. Grants
///   are exclusive (one per core, the core leaves the shared pool);
///   residents placed on the core earlier are re-verified under the new
///   band.
///
/// With no split-eligible (resp. grant-eligible) task in the workload,
/// both new policies produce decisions byte-identical to
/// [`PlacementPolicy::Partitioned`]: the extra machinery only engages on
/// the fallback path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Plain partitioned P-RMWP (every task whole on one CPU).
    #[default]
    Partitioned,
    /// Restricted-migration task splitting at job boundaries.
    SemiPartitioned,
    /// Dedicated-core grants for heavy parallel tasks + packed residuals.
    SemiFederated,
}

impl PlacementPolicy {
    /// All members of the family, in declaration order (bench sweeps).
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::Partitioned,
        PlacementPolicy::SemiPartitioned,
        PlacementPolicy::SemiFederated,
    ];
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlacementPolicy::Partitioned => "partitioned",
            PlacementPolicy::SemiPartitioned => "semi-partitioned",
            PlacementPolicy::SemiFederated => "semi-federated",
        };
        f.write_str(s)
    }
}

/// A valid partitioned assignment of tasks to hardware threads together
/// with the per-thread RMWP analyses (and hence every optional deadline).
#[derive(Debug, Clone)]
pub struct Partition {
    assignment: Vec<HwThreadId>,
    optional_deadline: Vec<Span>,
    per_thread: Vec<Vec<TaskId>>,
    secondary: Vec<Option<HwThreadId>>,
    granted: Vec<Option<HwThreadId>>,
}

impl Partition {
    /// Partitions `set` onto the hardware threads of `topology` using
    /// `heuristic`, admitting each task with the exact RMWP test under
    /// Rate Monotonic priorities.
    ///
    /// # Errors
    ///
    /// [`PartitionError::TaskDoesNotFit`] if some task cannot be placed on
    /// any hardware thread.
    pub fn compute(
        set: &TaskSet,
        topology: &Topology,
        heuristic: PartitionHeuristic,
    ) -> Result<Partition, PartitionError> {
        Self::compute_with_order(set, topology, heuristic, set.rm_order())
    }

    /// Like [`Partition::compute`] but with an explicit global priority
    /// order (highest first) — required whenever the deployed priorities
    /// differ from plain RM (e.g. RM-US HPQ tasks at SCHED_FIFO level 99),
    /// so that admission and execution agree.
    ///
    /// # Errors
    ///
    /// [`PartitionError::TaskDoesNotFit`] as for [`Partition::compute`].
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the set's task ids.
    pub fn compute_with_order(
        set: &TaskSet,
        topology: &Topology,
        heuristic: PartitionHeuristic,
        order: Vec<TaskId>,
    ) -> Result<Partition, PartitionError> {
        Self::compute_with_policy(set, topology, heuristic, order, PlacementPolicy::Partitioned)
    }

    /// Like [`Partition::compute_with_order`] but under an explicit
    /// [`PlacementPolicy`]. With [`PlacementPolicy::Partitioned`] this is
    /// exactly the historical first-fit P-RMWP partitioner; the other
    /// members only diverge on tasks plain placement rejects.
    ///
    /// # Errors
    ///
    /// [`PartitionError::TaskDoesNotFit`] if some task cannot be placed
    /// even with the policy's fallback mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the set's task ids.
    pub fn compute_with_policy(
        set: &TaskSet,
        topology: &Topology,
        heuristic: PartitionHeuristic,
        order: Vec<TaskId>,
        policy: PlacementPolicy,
    ) -> Result<Partition, PartitionError> {
        assert_eq!(order.len(), set.len(), "order must cover every task");
        let mut ranks = vec![u32::MAX; set.len()];
        for (rank, id) in order.iter().enumerate() {
            ranks[id.index()] = rank as u32;
        }
        assert!(
            ranks.iter().all(|&r| r != u32::MAX),
            "order must be a permutation of the task ids"
        );
        // The set's tasks in id order, borrowed as the slice they are stored in.
        let tasks: &[TaskSpec] = set.into_iter().as_slice();
        let mut engine = AdmissionEngine::new(topology.hw_threads() as usize, heuristic)
            .with_placement(policy);
        let admission = match engine.admit_ranked(tasks, &ranks) {
            AdmissionDecision::Admitted(admission) => admission,
            AdmissionDecision::Rejected(RejectReason::Unschedulable { index }) => {
                return Err(PartitionError::TaskDoesNotFit {
                    task: TaskId(index as u32),
                });
            }
            other => unreachable!("a non-empty batch admission cannot end in {other:?}"),
        };

        // Keys are task ids: the batch was keyed `0..n` in id order.
        let placed = &admission.tasks;
        Ok(Partition {
            assignment: placed.iter().map(|t| t.hw_thread).collect(),
            optional_deadline: placed.iter().map(|t| t.optional_deadline).collect(),
            per_thread: (0..engine.hw_threads())
                .map(|cpu| {
                    engine
                        .residents_on(cpu)
                        .map(|key| TaskId(key.0 as u32))
                        .collect()
                })
                .collect(),
            secondary: placed
                .iter()
                .map(|t| match t.kind {
                    PlacementKind::Split { secondary } => Some(secondary),
                    _ => None,
                })
                .collect(),
            granted: placed
                .iter()
                .map(|t| match t.kind {
                    PlacementKind::Federated { granted } => Some(granted),
                    _ => None,
                })
                .collect(),
        })
    }

    /// The hardware thread the mandatory thread of `task` is pinned to.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn hw_thread_of(&self, task: TaskId) -> HwThreadId {
        self.assignment[task.index()]
    }

    /// The relative optional deadline of `task` within its partition.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn optional_deadline(&self, task: TaskId) -> Span {
        self.optional_deadline[task.index()]
    }

    /// Tasks assigned to `thread`, in placement order.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[inline]
    pub fn tasks_on(&self, thread: HwThreadId) -> &[TaskId] {
        &self.per_thread[thread.index()]
    }

    /// Number of hardware threads that received at least one task.
    pub fn used_threads(&self) -> usize {
        self.per_thread.iter().filter(|b| !b.is_empty()).count()
    }

    /// The second host CPU of `task` when the semi-partitioned policy
    /// split it, `None` for whole tasks.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn secondary_of(&self, task: TaskId) -> Option<HwThreadId> {
        self.secondary[task.index()]
    }

    /// The dedicated core granted to `task`'s parallel optional parts by
    /// the semi-federated policy, `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn granted_core_of(&self, task: TaskId) -> Option<HwThreadId> {
        self.granted[task.index()]
    }
}

/// Error from [`Partition::compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// A task could not be admitted on any hardware thread.
    TaskDoesNotFit {
        /// The offending task.
        task: TaskId,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::TaskDoesNotFit { task } => {
                write!(f, "task {task} does not fit on any hardware thread")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::TaskSpec;

    fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(period_ms))
            .mandatory(Span::from_millis(m_ms))
            .windup(Span::from_millis(w_ms));
        b.build().unwrap()
    }

    fn heavy(n: usize) -> TaskSet {
        // n tasks of utilization 0.6 — at most one per thread.
        TaskSet::new((0..n).map(|i| task(&format!("t{i}"), 100, 30, 30)).collect()).unwrap()
    }

    #[test]
    fn single_task_on_uniprocessor() {
        let set = TaskSet::new(vec![task("τ1", 1000, 250, 250)]).unwrap();
        let p = Partition::compute(
            &set,
            &Topology::uniprocessor(),
            PartitionHeuristic::FirstFitDecreasing,
        )
        .unwrap();
        assert_eq!(p.hw_thread_of(TaskId(0)), HwThreadId(0));
        assert_eq!(p.optional_deadline(TaskId(0)), Span::from_millis(750));
        assert_eq!(p.used_threads(), 1);
        assert_eq!(p.tasks_on(HwThreadId(0)), &[TaskId(0)]);
    }

    #[test]
    fn heavy_tasks_spread_one_per_thread() {
        let set = heavy(4);
        for h in [
            PartitionHeuristic::FirstFitDecreasing,
            PartitionHeuristic::BestFitDecreasing,
            PartitionHeuristic::WorstFitDecreasing,
        ] {
            let p = Partition::compute(&set, &Topology::quad_core_smt2(), h).unwrap();
            assert_eq!(p.used_threads(), 4, "{h}");
        }
    }

    #[test]
    fn overload_reported() {
        // Five 0.6-utilization tasks on 4 hardware threads (uniprocessor
        // topology ×4? use 2 cores ×2 smt = 4 threads).
        let set = heavy(5);
        let topo = Topology::new(2, 2).unwrap();
        let err =
            Partition::compute(&set, &topo, PartitionHeuristic::FirstFitDecreasing).unwrap_err();
        assert!(matches!(err, PartitionError::TaskDoesNotFit { .. }));
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn ffd_packs_bestfit_spreads() {
        // Two light tasks (U = 0.2 each): FFD packs them on thread 0,
        // WFD spreads them across threads.
        let set = TaskSet::new(vec![task("a", 100, 10, 10), task("b", 100, 10, 10)]).unwrap();
        let topo = Topology::quad_core_smt2();
        let ffd =
            Partition::compute(&set, &topo, PartitionHeuristic::FirstFitDecreasing).unwrap();
        assert_eq!(ffd.used_threads(), 1);
        let wfd =
            Partition::compute(&set, &topo, PartitionHeuristic::WorstFitDecreasing).unwrap();
        assert_eq!(wfd.used_threads(), 2);
    }

    #[test]
    fn optional_deadlines_reflect_partition_interference() {
        // Two tasks co-located on a uniprocessor: the lower-priority task's
        // OD shrinks relative to running alone.
        let set = TaskSet::new(vec![task("hi", 100, 10, 10), task("lo", 1000, 100, 100)]).unwrap();
        let p = Partition::compute(
            &set,
            &Topology::uniprocessor(),
            PartitionHeuristic::FirstFitDecreasing,
        )
        .unwrap();
        // From the rmwp tests: OD(lo) = 860 with interference; alone it
        // would be 900.
        assert_eq!(p.optional_deadline(TaskId(1)), Span::from_millis(860));
    }

    fn compute_policy(
        set: &TaskSet,
        topo: &Topology,
        policy: PlacementPolicy,
    ) -> Result<Partition, PartitionError> {
        Partition::compute_with_policy(
            set,
            topo,
            PartitionHeuristic::FirstFitDecreasing,
            set.rm_order(),
            policy,
        )
    }

    #[test]
    fn placement_policy_display_and_all() {
        assert_eq!(PlacementPolicy::Partitioned.to_string(), "partitioned");
        assert_eq!(PlacementPolicy::SemiPartitioned.to_string(), "semi-partitioned");
        assert_eq!(PlacementPolicy::SemiFederated.to_string(), "semi-federated");
        assert_eq!(PlacementPolicy::ALL.len(), 3);
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::Partitioned);
    }

    #[test]
    fn does_not_fit_names_first_unplaceable_task_in_utilization_order() {
        // Placement order is decreasing utilization: 3 (0.7), then 1 and 2
        // (0.6 each, ties by id), then 0 (0.2). Tasks 3 and 1 take the two
        // CPUs; task 2 is the first that fits nowhere, and the batch index
        // the engine reports maps straight to its task id.
        let set = TaskSet::new(vec![
            task("light", 100, 10, 10),
            task("h1", 100, 30, 30),
            task("h2", 100, 30, 30),
            task("h3", 100, 35, 35),
        ])
        .unwrap();
        let topo = Topology::new(1, 2).unwrap();
        for policy in PlacementPolicy::ALL {
            let err = compute_policy(&set, &topo, policy).unwrap_err();
            assert_eq!(err, PartitionError::TaskDoesNotFit { task: TaskId(2) }, "{policy}");
        }
        // Without task 2 the rest fits, the light task beside a heavy one.
        let rest = TaskSet::new(vec![
            task("light", 100, 10, 10),
            task("h1", 100, 30, 30),
            task("h3", 100, 35, 35),
        ])
        .unwrap();
        let p = compute_policy(&rest, &topo, PlacementPolicy::Partitioned).unwrap();
        assert_eq!(p.hw_thread_of(TaskId(2)), HwThreadId(0));
        assert_eq!(p.hw_thread_of(TaskId(1)), HwThreadId(1));
        assert_eq!(p.used_threads(), 2);
    }

    #[test]
    fn semi_partitioned_splits_when_nothing_fits_whole() {
        // Two 0.7-utilization residents own the two CPUs; a high-rate 0.6
        // task fits on neither whole (its full-rate interference sinks the
        // residents), but at its halved split arrival `2T` both CPUs still
        // admit a subtask — aggregate slack exists, no single CPU fits.
        let set = TaskSet::new(vec![
            task("r0", 400, 280, 0),
            task("r1", 400, 280, 0),
            task("big", 100, 60, 0),
        ])
        .unwrap();
        let topo = Topology::new(1, 2).unwrap();
        // Plain P-RMWP rejects the set outright…
        let err = compute_policy(&set, &topo, PlacementPolicy::Partitioned).unwrap_err();
        assert!(matches!(err, PartitionError::TaskDoesNotFit { .. }));
        // …while semi-partitioned splits the last-placed task across both.
        let p = compute_policy(&set, &topo, PlacementPolicy::SemiPartitioned).unwrap();
        let split: Vec<TaskId> =
            set.ids().filter(|&id| p.secondary_of(id).is_some()).collect();
        assert_eq!(split.len(), 1);
        let id = split[0];
        assert_ne!(Some(p.hw_thread_of(id)), p.secondary_of(id));
        // The split task appears in both host bins.
        let primary = p.hw_thread_of(id);
        let second = p.secondary_of(id).unwrap();
        assert!(p.tasks_on(primary).contains(&id));
        assert!(p.tasks_on(second).contains(&id));
    }

    #[test]
    fn semi_partitioned_without_split_eligible_tasks_matches_plain() {
        let set = heavy(4);
        let topo = Topology::quad_core_smt2();
        let plain = compute_policy(&set, &topo, PlacementPolicy::Partitioned).unwrap();
        let semi = compute_policy(&set, &topo, PlacementPolicy::SemiPartitioned).unwrap();
        for id in set.ids() {
            assert_eq!(plain.hw_thread_of(id), semi.hw_thread_of(id));
            assert_eq!(plain.optional_deadline(id), semi.optional_deadline(id));
            assert_eq!(semi.secondary_of(id), None);
        }
    }

    /// A parallel-optional task (`Σo/T = 2`) plain P-RMWP rejects on a
    /// 1×2 box with two 0.55 residents, because its whole `m + w` fits on
    /// neither CPU — yet semi-federated admits the set.
    fn fed_win_set() -> TaskSet {
        let mut b = TaskSpec::builder("par");
        b.period(Span::from_millis(100))
            .mandatory(Span::from_millis(30))
            .windup(Span::from_millis(10))
            .optional_parts(2, Span::from_millis(100));
        let par = b.build().unwrap();
        TaskSet::new(vec![task("t0", 100, 27, 28), task("t1", 100, 27, 28), par]).unwrap()
    }

    #[test]
    fn semi_federated_admits_parallel_optional_set_plain_rejects() {
        let set = fed_win_set();
        let topo = Topology::new(1, 2).unwrap();
        // Plain: par's whole (m 30, w 10) fits with neither 0.55 resident.
        let err = compute_policy(&set, &topo, PlacementPolicy::Partitioned).unwrap_err();
        assert!(matches!(err, PartitionError::TaskDoesNotFit { task } if task == TaskId(2)));
        // Semi-federated: CPU 0's top band takes the wind-up (response
        // exactly w = 10, so OD = 90), the mandatory residual packs onto
        // CPU 1 with deadline 90.
        let p = compute_policy(&set, &topo, PlacementPolicy::SemiFederated).unwrap();
        assert_eq!(p.granted_core_of(TaskId(2)), Some(HwThreadId(0)));
        assert_eq!(p.hw_thread_of(TaskId(2)), HwThreadId(1));
        assert_eq!(p.optional_deadline(TaskId(2)), Span::from_millis(90));
        // The federated task is listed on both of its host threads.
        assert!(p.tasks_on(HwThreadId(0)).contains(&TaskId(2)));
        assert!(p.tasks_on(HwThreadId(1)).contains(&TaskId(2)));
        // Non-federated residents keep no grant.
        assert_eq!(p.granted_core_of(TaskId(0)), None);
        assert_eq!(p.secondary_of(TaskId(2)), None);
    }

    #[test]
    fn semi_federated_reverifies_grant_bin_residents() {
        // The grant core's earlier resident still sees the wind-up band's
        // interference: its OD shrinks by exactly the band's demand shape.
        let set = fed_win_set();
        let topo = Topology::new(1, 2).unwrap();
        let p = compute_policy(&set, &topo, PlacementPolicy::SemiFederated).unwrap();
        // t0 alone: OD = 100 − 28 = 72. Under the w = 10 top band:
        // R^w = 28 + 10 = 38, OD = 62.
        assert_eq!(p.optional_deadline(TaskId(0)), Span::from_millis(62));
        // t1 shares CPU 1 with only the residual (lower priority): intact.
        assert_eq!(p.optional_deadline(TaskId(1)), Span::from_millis(72));
    }

    #[test]
    fn semi_federated_without_parallel_heavy_tasks_matches_plain() {
        let set = heavy(4);
        let topo = Topology::quad_core_smt2();
        let plain = compute_policy(&set, &topo, PlacementPolicy::Partitioned).unwrap();
        let fed = compute_policy(&set, &topo, PlacementPolicy::SemiFederated).unwrap();
        for id in set.ids() {
            assert_eq!(plain.hw_thread_of(id), fed.hw_thread_of(id));
            assert_eq!(plain.optional_deadline(id), fed.optional_deadline(id));
            assert_eq!(fed.granted_core_of(id), None);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let set = heavy(4);
        let topo = Topology::quad_core_smt2();
        let p1 =
            Partition::compute(&set, &topo, PartitionHeuristic::BestFitDecreasing).unwrap();
        let p2 =
            Partition::compute(&set, &topo, PartitionHeuristic::BestFitDecreasing).unwrap();
        for id in set.ids() {
            assert_eq!(p1.hw_thread_of(id), p2.hw_thread_of(id));
        }
    }
}
