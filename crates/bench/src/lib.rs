//! Harness library shared by the figure/table binaries and the Criterion
//! benches (see DESIGN.md's experiment index).
//!
//! Every binary regenerates one artifact of the paper's evaluation (§V):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig10_mandatory_overhead` | Fig. 10 (a–c): Δm vs np |
//! | `fig11_switch_overhead` | Fig. 11 (a–c): Δs vs np |
//! | `fig12_begin_optional` | Fig. 12 (a–c): Δb vs np |
//! | `fig13_end_optional` | Fig. 13 (a–c): Δe vs np |
//! | `table1_termination` | Table I + behavioral consequences |
//! | `ablation_qos` | (extension) QoS vs np per policy |
//! | `ablation_partition` | (extension) partition heuristics |
//!
//! The four measured benches (`simbench`, `churnbench`, `mcbench`,
//! `ablate`) share one command line, timing loop and schema-1 JSON writer:
//! [`harness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod mc;

use rtseed::config::SystemConfig;
use rtseed::exec_sim::SimExecutor;
use rtseed::executor::{Outcome, RunConfig};
use rtseed::policy::AssignmentPolicy;
use rtseed::termination::TerminationMode;
use rtseed_model::{Span, TaskSet, TaskSpec, Topology};
use rtseed_sim::{BackgroundLoad, OverheadKind};

/// The paper's sweep of parallel-optional-part counts (§V-A).
pub const NP_SET: [usize; 8] = [4, 8, 16, 32, 57, 114, 171, 228];

/// Number of jobs per configuration (§V-A: "the number of jobs executed in
/// task τ1 is set to 100").
pub const PAPER_JOBS: u64 = 100;

/// The paper's evaluation task: T = 1 s, m = w = 250 ms, np optional parts
/// of 1 s each (always overrun, worst-case termination).
pub fn paper_task_set(np: usize) -> TaskSet {
    let task = TaskSpec::builder("τ1")
        .period(Span::from_secs(1))
        .mandatory(Span::from_millis(250))
        .windup(Span::from_millis(250))
        .optional_parts(np, Span::from_secs(1))
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

/// One series point of a figure: mean overhead for (np, policy, load).
#[derive(Debug, Clone, Copy)]
pub struct FigurePoint {
    /// Number of parallel optional parts.
    pub np: usize,
    /// Assignment policy.
    pub policy: AssignmentPolicy,
    /// Background load.
    pub load: BackgroundLoad,
    /// Mean of the overhead across jobs.
    pub mean: Span,
}

/// Sweeps the full paper grid (np × policy × load) for one overhead kind.
pub fn overhead_sweep(kind: OverheadKind, jobs: u64, seed: u64) -> Vec<FigurePoint> {
    let mut points = Vec::new();
    for load in BackgroundLoad::ALL {
        for policy in AssignmentPolicy::PAPER_POLICIES {
            for np in NP_SET {
                let out = run_paper_workload(np, policy, load, jobs, seed);
                points.push(FigurePoint {
                    np,
                    policy,
                    load,
                    mean: out.overheads.mean(kind),
                });
            }
        }
    }
    points
}

/// Unit used when rendering a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureUnit {
    /// Microseconds (Figs. 10–12).
    Micros,
    /// Milliseconds (Fig. 13).
    Millis,
}

impl FigureUnit {
    fn convert(self, s: Span) -> f64 {
        match self {
            FigureUnit::Micros => s.as_micros_f64(),
            FigureUnit::Millis => s.as_millis_f64(),
        }
    }

    fn label(self) -> &'static str {
        match self {
            FigureUnit::Micros => "us",
            FigureUnit::Millis => "ms",
        }
    }
}

/// Renders a figure's sweep as the three per-load tables the paper plots
/// ((a) no load, (b) CPU load, (c) CPU-Memory load), one row per np and
/// one column per assignment policy.
pub fn render_figure(title: &str, points: &[FigurePoint], unit: FigureUnit) -> String {
    let mut out = format!("# {title}\n");
    for (idx, load) in BackgroundLoad::ALL.iter().enumerate() {
        let tag = (b'a' + idx as u8) as char;
        out.push_str(&format!("\n({tag}) {load} — mean overhead [{}]\n", unit.label()));
        out.push_str(&format!(
            "{:>5} {:>14} {:>14} {:>14}\n",
            "np", "one-by-one", "two-by-two", "all-by-all"
        ));
        for np in NP_SET {
            let mut row = format!("{np:>5}");
            for policy in AssignmentPolicy::PAPER_POLICIES {
                let p = points
                    .iter()
                    .find(|p| p.np == np && p.policy == policy && p.load == *load)
                    .expect("full grid");
                row.push_str(&format!(" {:>14.2}", unit.convert(p.mean)));
            }
            out.push('\n');
            out.insert_str(out.len(), &row);
        }
        out.push('\n');
    }
    out
}

/// Renders the sweep as CSV (`figure,load,policy,np,mean_ns`).
pub fn render_csv(figure: &str, points: &[FigurePoint]) -> String {
    let mut out = String::from("figure,load,policy,np,mean_ns\n");
    for p in points {
        out.push_str(&format!(
            "{figure},{},{},{},{}\n",
            p.load,
            p.policy,
            p.np,
            p.mean.as_nanos()
        ));
    }
    out
}

/// Jobs for a harness run: `RTSEED_JOBS` env var or the paper's 100.
pub fn jobs_from_env() -> u64 {
    std::env::var("RTSEED_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(PAPER_JOBS)
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

    #[test]
    fn sweep_covers_full_grid() {
        let points = overhead_sweep(OverheadKind::BeginMandatory, 2, 0);
        assert_eq!(points.len(), 3 * 3 * 8);
    }

    #[test]
    fn render_contains_all_rows() {
        let points = overhead_sweep(OverheadKind::BeginMandatory, 1, 0);
        let text = render_figure("Fig. 10", &points, FigureUnit::Micros);
        assert!(text.contains("(a) no-load"), "{text}");
        assert!(text.contains("(b) cpu"), "{text}");
        assert!(text.contains("(c) cpu-memory"), "{text}");
        for np in NP_SET {
            assert!(text.contains(&format!("{np:>5}")), "missing np={np}");
        }
        let csv = render_csv("fig10", &points);
        assert_eq!(csv.lines().count(), 1 + points.len());
    }
}
