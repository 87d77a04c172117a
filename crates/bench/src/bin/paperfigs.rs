//! `paperfigs` — the paper's simulated evaluation (§V) in one run: prints
//! Figs. 10–13 as tables, then Table I, Figs. 3 and 8, the three ablations
//! and the shape verdicts row by row, and writes the same rows as
//! `BENCH_paperfigs.json` (schema 1, no wall-clock: two runs are
//! byte-identical, and CI compares them with the committed file).
//!
//! Usage: `paperfigs [--out PATH]`. Exits 1 when a shape does not hold.

use std::process::ExitCode;

use rtseed::policy::AssignmentPolicy;
use rtseed::termination::render_table1;
use rtseed_bench::harness::Args;
use rtseed_bench::paperfigs::PaperFigs;
use rtseed_bench::NP_SET;
use rtseed_sim::{BackgroundLoad, OverheadKind};
use OverheadKind::{BeginMandatory, BeginOptional, EndOptional, SwitchToOptional};

/// One of Figs. 10–13: a table per load, a row per np, a column per policy.
fn print_figure(figs: &PaperFigs, title: &str, kind: OverheadKind, unit: &str, per_unit: f64) {
    println!("# {title}");
    for load in BackgroundLoad::ALL {
        println!("\n{load} — mean overhead [{unit}]");
        println!("   np     one-by-one     two-by-two     all-by-all");
        for np in NP_SET {
            let row = AssignmentPolicy::PAPER_POLICIES.map(|policy| {
                let mean = figs.cell(load, policy, np).mean(kind);
                format!(" {:>14.2}", mean.as_nanos() as f64 / per_unit)
            });
            println!("{np:>5}{}", row.concat());
        }
    }
    println!();
}

fn main() -> ExitCode {
    let mut args = Args::from_env("paperfigs");
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| String::from("BENCH_paperfigs.json"));
    if let Err(usage) = args.finish() {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }
    let figs = PaperFigs::run();
    for (title, kind, unit, per_unit) in [
        ("Fig. 10 — beginning the mandatory part (Δm)", BeginMandatory, "us", 1e3),
        ("Fig. 11 — switching to the optional thread (Δs)", SwitchToOptional, "us", 1e3),
        ("Fig. 12 — beginning the parallel optional parts (Δb)", BeginOptional, "ms", 1e6),
        ("Fig. 13 — ending the parallel optional parts (Δe)", EndOptional, "ms", 1e6),
    ] {
        print_figure(&figs, title, kind, unit, per_unit);
    }
    println!("# Table I\n\n{}", render_table1());
    for (name, rows) in &figs.arrays {
        println!("# {name}");
        rows.iter().for_each(|row| println!("{row}"));
        println!();
    }
    println!("# shapes");
    for shape in &figs.shapes {
        let verdict = if shape.holds { "holds" } else { "FAILS" };
        println!("{verdict}  {}: {:.3?} (paper: {})", shape.name, shape.measured, shape.paper);
    }
    std::fs::write(&out_path, figs.document()).expect("write benchmark output");
    println!("\npaperfigs: wrote {out_path}");
    if let Err(failed) = figs.verdict() {
        eprintln!("{failed}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
