//! Measures the four middleware overheads (Δm, Δb, Δs, Δe) on the *real*
//! host with the native backend — the paper's §V-B methodology executed
//! directly, with real background-load threads from
//! `rtseed::runtime::loadgen`.
//!
//! On an unprivileged or single-CPU machine the absolute values are
//! dominated by CFS scheduling noise (the `RuntimeReport` below says
//! whether SCHED_FIFO was granted); on an RT-enabled multi-core host this
//! harness reproduces the paper's measurement loop faithfully.

use std::process::ExitCode;

use rtseed::prelude::*;
use rtseed::runtime::loadgen::LoadGenerator;
use rtseed_bench::harness::Args;

/// Jobs per point: nine points of 25 periods of 40 ms, about 9 s.
const JOBS: u64 = 25;

fn config(np: usize) -> SystemConfig {
    let task = TaskSpec::builder("native-probe")
        .period(Span::from_millis(40))
        .mandatory(Span::from_millis(2))
        .windup(Span::from_millis(2))
        .optional_parts(np, Span::from_millis(15))
        .build()
        .expect("valid task");
    SystemConfig::build(
        TaskSet::new(vec![task]).expect("non-empty"),
        Topology::uniprocessor(),
        AssignmentPolicy::OneByOne,
    )
    .expect("schedulable")
}

fn main() -> ExitCode {
    if let Err(usage) = Args::from_env("native_overheads").finish() {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }
    println!("Native overhead measurement — {JOBS} jobs per point, T = 40 ms\n");
    println!(
        "{:>12} {:>4} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "load", "np", "Δm mean", "Δb mean", "Δs mean", "Δe mean", "misses"
    );
    let mut report = None;
    for load in BackgroundLoad::ALL {
        let gen = LoadGenerator::one_per_cpu(load);
        for np in [1usize, 2, 4] {
            let run = RunConfig::builder()
                .jobs(JOBS)
                .termination(TerminationMode::PeriodicCheck {
                    interval: Span::from_micros(200),
                })
                .build()
                .expect("valid run config");
            let exec = NativeExecutor::new(config(np), run);
            let out = exec
                .run(vec![TaskBody::new(
                    |_| {},
                    |_, _, ctl| {
                        while !ctl.should_stop() {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                    },
                    |_| {},
                )])
                .expect("native run");
            let means: String = OverheadKind::ALL
                .iter()
                .map(|&k| format!(" {:>12}", out.overheads.mean(k).to_string()))
                .collect();
            println!(
                "{:>12} {:>4}{means} {:>8}",
                load.to_string(),
                np,
                out.qos.deadline_misses(),
            );
            report.get_or_insert(out.runtime);
        }
        gen.stop();
    }
    if let Some(r) = report {
        println!("\nRuntime report (first run): {r:#?}");
    }
    ExitCode::SUCCESS
}
