//! Harness library shared by the bench binaries (see DESIGN.md's
//! experiment index).
//!
//! | Binary | What it produces |
//! |---|---|
//! | `paperfigs` | The paper's simulated evaluation (§V): Figs. 10–13, Table I, Figs. 3 and 8, three ablations and one shape verdict per claim, as `BENCH_paperfigs.json` ([`paperfigs`]) |
//! | `native_overheads` | Δm/Δb/Δs/Δe on the real host with real load threads (wall-clock, report only) |
//! | `simbench`, `churnbench`, `mcbench`, `ablate` | The four measured benches |
//!
//! All of them but `native_overheads` share one command line, timing loop
//! and schema-1 JSON writer: [`harness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod mc;
pub mod paperfigs;

use rtseed::config::SystemConfig;
use rtseed::exec_sim::SimExecutor;
use rtseed::executor::{Outcome, RunConfig};
use rtseed::policy::AssignmentPolicy;
use rtseed::termination::TerminationMode;
use rtseed_model::{Span, TaskSet, TaskSpec, Topology};
use rtseed_sim::BackgroundLoad;

/// The paper's sweep of parallel-optional-part counts (§V-A).
pub const NP_SET: [usize; 8] = [4, 8, 16, 32, 57, 114, 171, 228];

/// Number of jobs per configuration (§V-A: "the number of jobs executed in
/// task τ1 is set to 100").
pub const PAPER_JOBS: u64 = 100;

/// The paper's evaluation task: T = 1 s, m = w = 250 ms, np optional parts
/// of 1 s each (always overrun, worst-case termination).
pub fn paper_task_set(np: usize) -> TaskSet {
    evaluation_task_set(np, Span::from_secs(1))
}

/// The evaluation task with `np` optional parts of `optional` each.
fn evaluation_task_set(np: usize, optional: Span) -> TaskSet {
    let task = TaskSpec::builder("τ1")
        .period(Span::from_secs(1))
        .mandatory(Span::from_millis(250))
        .windup(Span::from_millis(250))
        .optional_parts(np, optional)
        .build()
        .expect("paper task is valid");
    TaskSet::new(vec![task]).expect("non-empty")
}

/// The paper's system configuration on the simulated Xeon Phi 3120A.
pub fn paper_config(np: usize, policy: AssignmentPolicy) -> SystemConfig {
    SystemConfig::build(paper_task_set(np), Topology::xeon_phi_3120a(), policy)
        .expect("paper workload is schedulable")
}

/// Runs the paper workload once and returns the outcome.
pub fn run_paper_workload(
    np: usize,
    policy: AssignmentPolicy,
    load: BackgroundLoad,
    jobs: u64,
    seed: u64,
) -> Outcome {
    let cfg = paper_config(np, policy);
    SimExecutor::new(
        cfg,
        RunConfig {
            jobs,
            load,
            seed,
            termination: TerminationMode::SigjmpTimer,
            ..Default::default()
        },
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_task_set_matches_section_5a() {
        let set = paper_task_set(57);
        let t = set.task(rtseed_model::TaskId(0));
        assert_eq!(t.period(), Span::from_secs(1));
        assert_eq!(t.mandatory(), Span::from_millis(250));
        assert_eq!(t.windup(), Span::from_millis(250));
        assert_eq!(t.optional_count(), 57);
        assert_eq!(t.optional_parts()[0], Span::from_secs(1));
    }

    #[test]
    fn np_set_matches_paper() {
        assert_eq!(NP_SET, [4, 8, 16, 32, 57, 114, 171, 228]);
    }
}
