//! The paper's evaluation (§V) on the simulated Xeon Phi: the document
//! `paperfigs` writes is pinned byte for byte, and every claim
//! EXPERIMENTS.md records is a named shape of that document which must
//! hold. One run, shared by every test: these are the numbers in
//! EXPERIMENTS.md and `BENCH_paperfigs.json`, not a cheaper copy of them.

use std::sync::OnceLock;

use rtseed_bench::paperfigs::{document, PaperFigs};

fn figs() -> &'static PaperFigs {
    static FIGS: OnceLock<PaperFigs> = OnceLock::new();
    FIGS.get_or_init(PaperFigs::run)
}

/// The named shape exists and holds.
fn assert_holds(name: &str) {
    let found = figs().shapes.iter().find(|s| s.name == name);
    let shape = found.unwrap_or_else(|| panic!("no shape named {name}"));
    assert!(shape.holds, "{name}: {:?} (paper: {})", shape.measured, shape.paper);
}

#[test]
fn document_is_the_committed_one() {
    // Regenerate with `cargo run --release -p rtseed-bench --bin paperfigs`.
    assert_eq!(document(), include_str!("../../BENCH_paperfigs.json"));
}

#[test]
fn document_is_deterministic() {
    assert_eq!(document(), document());
}

#[test]
fn every_shape_holds() {
    assert_eq!(figs().verdict(), Ok(()));
}

#[test]
fn a_shape_that_does_not_hold_fails_the_bin() {
    let mut figs = figs().clone();
    figs.shapes[3].holds = false;
    let failed = figs.verdict().expect_err("one shape does not hold");
    assert!(failed.contains(figs.shapes[3].name), "{failed}");
    assert!(figs.document().contains("\"holds\": false"));
}

#[test]
fn fig10_dm_is_constant_in_np() {
    assert_holds("fig10_dm_np228_over_np4_by_load");
}

#[test]
fn fig10_dm_load_ordering() {
    assert_holds("fig10_dm_us_rises_with_load_at_np57");
}

#[test]
fn fig11_ds_grows_unloaded_flat_loaded() {
    assert_holds("fig11_ds_us_unloaded_grows_with_np_and_surges_at_228");
    assert_holds("fig11_ds_np228_over_np4_under_cpu_and_cpu_memory_load");
}

#[test]
fn fig12_db_linear_and_cpu_worst() {
    // The CpuLoad curve sits ABOVE CpuMemoryLoad (§V-B's inversion).
    assert_holds("fig12_db_doubles_np57_to_114_to_228_by_load");
    assert_holds("fig12_db_ms_cpu_above_cpu_memory_above_no_load_at_np228");
}

#[test]
fn fig13_de_largest_overhead_and_mem_worst() {
    // CpuMemoryLoad > CpuLoad: the inverse of Δb.
    assert_holds("fig13_de_us_largest_of_dm_db_ds_de_at_np228");
    assert_holds("fig13_de_ms_cpu_memory_above_cpu_at_np228");
}

#[test]
fn fig13_policy_ordering_under_load() {
    assert_holds("fig13_de_ms_one_above_two_above_all_under_load_np57_to_228");
}

#[test]
fn fig13_policies_similar_unloaded() {
    assert_holds("fig13_de_one_by_one_over_all_by_all_unloaded_at_np171");
}

#[test]
fn de_grows_linearly_with_np() {
    assert_holds("fig13_de_np228_over_np57_unloaded");
}

#[test]
fn paper_magnitudes_match_figure_axes() {
    // The rows that also bound a magnitude: Δm CpuMem ≈ 250 µs, Δb CPU@228
    // ≈ 10 ms, Δe CpuMem@228 ≈ 50 ms.
    assert_holds("fig10_dm_us_rises_with_load_at_np57");
    assert_holds("fig12_db_ms_cpu_above_cpu_memory_above_no_load_at_np228");
    assert_holds("fig13_de_ms_cpu_memory_above_cpu_at_np228");
}

#[test]
fn all_np_policies_loads_meet_deadlines() {
    // The paper workload is schedulable by construction; the measured
    // overheads must fit in the WCET headroom everywhere on the grid.
    assert_eq!(figs().overheads.len(), 3 * 3 * 8);
    for run in &figs().overheads {
        assert_eq!((run.jobs, run.misses), (100, 0), "missed deadlines at {run:?}");
    }
    assert_holds("grid_runs_jobs_misses");
}

#[test]
fn optional_deadline_equals_d_minus_w() {
    assert_holds("od_ms_equals_d_minus_w");
}
