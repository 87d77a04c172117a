//! Composed chaos scenarios: tenant churn × fault injection under one
//! seed.
//!
//! A [`ChaosPlan`] bundles a [`ChurnPlan`] (who arrives and departs,
//! when) with a [`FaultPlan`] (which jobs overrun, lose timers, or hit
//! CPU stalls), both derived from the same seed, so a whole adversarial
//! scenario — an arrival storm crashing into a noisy neighbour — is one
//! replayable value. The serving layer consumes the two halves
//! separately (`RunConfig.fault_plan` + `run_with_churn`), which keeps
//! the composition purely structural: replaying the same plan yields a
//! byte-identical trace.

use rtseed_model::{Span, TaskSpec, Time};

use crate::churn::ChurnPlan;
use crate::fault::{FaultPlan, FaultTarget, JobWindow, WcetFault};

/// A seeded, replayable chaos scenario: churn and faults composed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// The seed both halves were derived from.
    pub seed: u64,
    /// Scripted tenant arrivals and departures.
    pub churn: ChurnPlan,
    /// Injected faults, replayed by the engine.
    pub faults: FaultPlan,
}

impl ChaosPlan {
    /// An empty scenario: no churn, no faults.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            churn: ChurnPlan::new(),
            faults: FaultPlan::new(seed),
        }
    }

    /// The canonical noisy-neighbour storm: an adversarial tenant
    /// arrives at time zero and every job of its `adversary_tasks`
    /// overruns its mandatory part `overrun_factor`×, while `n`
    /// well-behaved tenants (task sets from `tasks(i)`) arrive in a
    /// seeded storm across `[0, window)`.
    ///
    /// The adversary arrives first, so its engine task indices are
    /// `0..adversary_tasks.len()` — exactly the indices the WCET faults
    /// target.
    pub fn adversarial_storm(
        seed: u64,
        adversary_tasks: Vec<TaskSpec>,
        overrun_factor: f64,
        n: usize,
        window: Span,
        tasks: impl FnMut(usize) -> Vec<TaskSpec>,
    ) -> ChaosPlan {
        let mut faults = FaultPlan::new(seed);
        for idx in 0..adversary_tasks.len() {
            faults = faults.with_wcet_fault(WcetFault {
                task: Some(idx as u32),
                jobs: JobWindow::ALL,
                target: FaultTarget::Mandatory,
                factor: overrun_factor,
            });
        }
        let churn = ChurnPlan::new()
            .arrive(Time::ZERO, "adversary", adversary_tasks)
            .storm(seed, n, window, tasks);
        ChaosPlan { seed, churn, faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(name: &str) -> TaskSpec {
        TaskSpec::builder(name)
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(10))
            .windup(Span::from_millis(10))
            .build()
            .unwrap()
    }

    #[test]
    fn adversarial_storm_is_replayable_and_targets_the_adversary() {
        let build = |seed| {
            ChaosPlan::adversarial_storm(
                seed,
                vec![task("adv0"), task("adv1")],
                10.0,
                20,
                Span::from_millis(500),
                |i| vec![task(&format!("g{i}"))],
            )
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9), build(10));
        let plan = build(9);
        assert_eq!(plan.churn.len(), 21, "adversary + 20 storm arrivals");
        // The faults hit exactly the adversary's task indices 0 and 1.
        assert!(plan.faults.wcet_factor(0, 5, FaultTarget::Mandatory) > 9.0);
        assert!(plan.faults.wcet_factor(1, 5, FaultTarget::Mandatory) > 9.0);
        assert_eq!(plan.faults.wcet_factor(2, 5, FaultTarget::Mandatory), 1.0);
    }
}
