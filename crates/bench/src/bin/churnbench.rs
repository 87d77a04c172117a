//! `churnbench` — serving-layer benchmark: online admission throughput,
//! admission-decision latency, and QoS under tenant churn.
//!
//! A multi-tenant middleware's control plane must keep up with tenant
//! arrivals: every submission runs the full RMWP response-time analysis
//! against the resident population, so admission cost grows with
//! residency. This harness measures
//!
//! * **admission throughput** — tenants admitted per second when filling
//!   an empty machine to its first rejection (the admission test's cost
//!   on a *growing* resident set), and
//! * **churn replay** — wall-clock and scheduling events/sec of a full
//!   [`SessionManager`] run under a scripted arrive/depart plan, with the
//!   end-to-end QoS the admitted tenants achieved, and
//! * **tenant-scale sweep** (`--tenants N`) — N single-task tenants
//!   admitted three ways on a 228-thread topology: through the
//!   incremental [`AdmissionEngine`] (per-CPU RTA fixpoints memoised in
//!   its [`RtaCache`](rtseed_analysis::RtaCache)), through the
//!   full-recompute baseline (`without_cache`, re-running RTA over every
//!   non-empty CPU per decision — the pre-cache controller's cost), and
//!   through [`ShardedAdmission`] in 64-submission batches. A decision
//!   fingerprint (FNV-1a over placements and granted ODs) proves the
//!   cached and full paths decide *identically*; the row records the
//!   speedup.
//!
//! Output is `BENCH_churnbench.json` in the same stable `{"schema": 1}`
//! shape `simbench` uses, so future PRs can diff the serving layer's perf
//! trajectory:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "churnbench",
//!   "mode": "full",
//!   "admission": [
//!     {"bench": "admit_quad_4x2", "config": {"cores": 4, "smt": 2},
//!      "admitted": 12, "repeats": 5, "wall_ms": 1.2,
//!      "admissions_per_sec": 10000.0, "wall_ms_min": 1.0,
//!      "admissions_per_sec_best": 12000.0}
//!   ],
//!   "churn": [
//!     {"bench": "churn_quad_4x2", "config": {"cores": 4, "smt": 2,
//!      "tenants": 12, "jobs": 20, "seed": 0}, "events": 12345,
//!      "jobs": 200, "misses": 0, "repeats": 5, "wall_ms": 9.8,
//!      "events_per_sec": 1000000.0, "wall_ms_min": 9.0,
//!      "events_per_sec_best": 1100000.0}
//!   ]
//! }
//! ```
//!
//! Usage:
//!
//! ```text
//! churnbench [--quick] [--tenants N] [--out PATH] [--check] [--repeats N]
//! ```
//!
//! `--tenants N` adds the scale sweep to the default suites (without it
//! the `"scale"` array is empty); the sweep always fails hard when the
//! incremental and full-recompute fingerprints differ. `--check` gates the
//! sweep's same-process ratio: incremental must be at least
//! [`MIN_SPEEDUP`]× the full-recompute baseline. It is a usage error
//! without `--tenants` — there would be nothing to check. No absolute rate
//! is gated: every suite asserts that its repeats reproduce the warmup's
//! result, and that is the whole contract a noisy host can be held to.
//! The guarded submission storm is timed by `perfbench`'s `tenant_storm`
//! workload, not here.

use std::process::ExitCode;

use rtseed::policy::AssignmentPolicy;
use rtseed::serve::{ServeArena, SessionManager};
use rtseed::RunConfig;
use rtseed_analysis::{
    AdmissionDecision, AdmissionEngine, PartitionHeuristic, ShardedAdmission,
};
use rtseed_bench::harness::{fnv1a, measure, timed, Args, Doc, Row, FNV_OFFSET};
use rtseed_model::{Span, TaskSpec, Time, Topology};
use rtseed_sim::ChurnPlan;

/// `--check`: the incremental admission path must decide the scale sweep
/// at least this many times faster than full recompute. Both rates come
/// from one process, seconds apart, so the ratio (about 400× at 1 000
/// tenants) is a property of the code, not of the host.
const MIN_SPEEDUP: f64 = 5.0;

/// The task set every benchmark tenant submits: one pipeline task, 8 %
/// mandatory+wind-up utilization, two optional parts.
fn tenant_tasks(i: usize) -> Vec<TaskSpec> {
    vec![TaskSpec::builder(format!("t{i}"))
        .period(Span::from_millis(50))
        .mandatory(Span::from_millis(2))
        .windup(Span::from_millis(2))
        .optional_parts(2, Span::from_millis(10))
        .build()
        .expect("benchmark spec is valid")]
}

/// The `config` object every suite's rows start from.
fn machine(cores: u32, smt: u32) -> Row {
    Row::new().int("cores", cores).int("smt", smt)
}

/// Fills an empty engine with single-task tenants until the first
/// rejection; returns (admitted, wall ms). Cost grows with residency
/// — exactly the control-plane path a serving process pays per submission.
fn fill_to_rejection(cores: u32, smt: u32) -> (u64, f64) {
    let topo = Topology::new(cores, smt).expect("non-degenerate");
    let mut eng = AdmissionEngine::new(
        topo.hw_threads() as usize,
        PartitionHeuristic::WorstFitDecreasing,
    );
    timed(|| {
        let mut admitted = 0;
        while eng.try_admit(&tenant_tasks(admitted)).is_admitted() {
            admitted += 1;
        }
        admitted as u64
    })
}

fn admission_suite(repeats: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, cores, smt) in [("admit_quad_4x2", 4, 2), ("admit_phi_57x4", 57, 4)] {
        let (admitted, t) = measure(name, repeats, || fill_to_rejection(cores, smt));
        println!(
            "{name:>16}: {admitted:>5} admitted, median {:>8.3} ms = {:>10.0} adm/s, \
             best {:>8.3} ms = {:>10.0} adm/s (n={repeats})",
            t.wall_ms,
            t.rate(admitted),
            t.wall_ms_min,
            t.rate_best(admitted)
        );
        rows.push(
            Row::new()
                .str("bench", name)
                .raw("config", machine(cores, smt))
                .int("admitted", admitted)
                .timing(&t, Some(("admissions_per_sec", admitted))),
        );
    }
    rows
}

/// A deterministic plan: `tenants` staggered arrivals 10 ms apart, the
/// first half departing mid-run (so the survivors' optional deadlines are
/// recomputed under load).
fn churn_plan(tenants: usize) -> ChurnPlan {
    let mut plan = ChurnPlan::new();
    for i in 0..tenants {
        plan = plan.arrive(
            Time::from_nanos(i as u64 * 10_000_000),
            format!("t{i}"),
            tenant_tasks(i),
        );
    }
    for i in 0..tenants / 2 {
        plan = plan.depart(
            Time::from_nanos(400_000_000 + i as u64 * 10_000_000),
            format!("t{i}"),
        );
    }
    plan
}

fn churn_suite(quick: bool, repeats: usize) -> Vec<Row> {
    let (jobs, seed) = (if quick { 10 } else { 40 }, 0);
    let mut rows = Vec::new();
    for (name, cores, smt, tenants) in [("churn_quad_4x2", 4, 2, 12), ("churn_phi_57x4", 57, 4, 64)] {
        let plan = churn_plan(tenants);
        // One arena for the warmup and every repeat: after the warmup parks
        // its buffers no repeat cold-starts the executor, and the
        // determinism assert in [`measure`] then exercises hot ≡ cold, a
        // tested contract of `ServeArena`.
        let mut arena = ServeArena::new();
        let ((events, jobs_run, misses), t) = measure(name, repeats, || {
            let run = RunConfig {
                jobs,
                seed,
                ..RunConfig::default()
            };
            let mgr = SessionManager::new_in(
                Topology::new(cores, smt).expect("non-degenerate"),
                PartitionHeuristic::WorstFitDecreasing,
                AssignmentPolicy::OneByOne,
                run,
                &mut arena,
            );
            // Timing `run_with_churn_in` alone.
            let (out, wall_ms) = timed(|| mgr.run_with_churn_in(&plan, &mut arena));
            let qos = &out.outcome.qos;
            (
                (out.outcome.events_processed, qos.jobs(), qos.deadline_misses()),
                wall_ms,
            )
        });
        println!(
            "{name:>16}: {events:>8} events, {jobs_run:>5} jobs, {misses} misses, \
             median {:>8.3} ms = {:>10.0} ev/s, best {:>8.3} ms = {:>10.0} ev/s (n={repeats})",
            t.wall_ms,
            t.rate(events),
            t.wall_ms_min,
            t.rate_best(events)
        );
        let config = machine(cores, smt)
            .int("tenants", tenants)
            .int("jobs", jobs)
            .int("seed", seed);
        rows.push(
            Row::new()
                .str("bench", name)
                .raw("config", config)
                .int("events", events)
                .int("jobs", jobs_run)
                .int("misses", misses)
                .timing(&t, Some(("events_per_sec", events))),
        );
    }
    rows
}

// ----- tenant-scale sweep: incremental vs full-recompute vs sharded -------

/// How one scale row drives the admission control.
#[derive(Clone, Copy, PartialEq)]
enum ScaleMode {
    /// [`AdmissionEngine`] with its per-CPU RTA cache (the default path).
    Incremental,
    /// `AdmissionEngine::without_cache()`: every decision re-runs RTA
    /// over every non-empty CPU — the pre-cache controller's cost.
    FullRecompute,
    /// [`ShardedAdmission`] admitting in batches.
    Sharded { shards: usize, batch: usize },
}

/// What a pass of the sweep must reproduce: admitted, rejected, and the
/// FNV-1a fingerprint over every decision's (submission index,
/// placement, OD).
#[derive(Debug, PartialEq)]
struct Decisions {
    admitted: u64,
    rejected: u64,
    fingerprint: u64,
}

impl Decisions {
    fn fold(&mut self, i: usize, d: &AdmissionDecision) {
        let fp = &mut self.fingerprint;
        match d {
            AdmissionDecision::Admitted(a) => {
                self.admitted += 1;
                for t in &a.tasks {
                    fnv1a(fp, i as u64);
                    fnv1a(fp, t.hw_thread.index() as u64);
                    fnv1a(fp, t.optional_deadline.as_nanos());
                }
            }
            _ => {
                self.rejected += 1;
                fnv1a(fp, i as u64);
                fnv1a(fp, u64::MAX);
            }
        }
    }
}

/// One pass of the sweep: submit `tenants` single-task tenants through
/// the chosen admission path on the 57×4 machine.
fn run_scale(mode: ScaleMode, hw: usize, tenants: usize) -> (Decisions, f64) {
    let heuristic = PartitionHeuristic::WorstFitDecreasing;
    let mut seen = Decisions {
        admitted: 0,
        rejected: 0,
        fingerprint: FNV_OFFSET,
    };
    let ((), wall_ms) = match mode {
        ScaleMode::Incremental | ScaleMode::FullRecompute => {
            let mut eng = AdmissionEngine::new(hw, heuristic);
            if mode == ScaleMode::FullRecompute {
                eng = eng.without_cache();
            }
            timed(|| {
                for i in 0..tenants {
                    seen.fold(i, &eng.try_admit(&tenant_tasks(i)));
                }
            })
        }
        ScaleMode::Sharded { shards, batch } => {
            let mut ctl = ShardedAdmission::new(hw, shards, heuristic);
            timed(|| {
                for start in (0..tenants).step_by(batch) {
                    let end = (start + batch).min(tenants);
                    let wave: Vec<Vec<TaskSpec>> = (start..end).map(tenant_tasks).collect();
                    for (off, d) in ctl.admit_batch(&wave).iter().enumerate() {
                        seen.fold(start + off, d);
                    }
                }
            })
        }
    };
    (seen, wall_ms)
}

/// The three scale rows and the incremental / full-recompute speedup
/// (best-of rates). Correctness is not optional at any scale: a
/// fingerprint mismatch means the incremental admission path diverged
/// from the full-RTA ground truth, so every sweep — with or without
/// `--check`, including the non-CI `--tenants 10000` run documented in
/// EXPERIMENTS.md — is an error on it.
fn scale_suite(tenants: usize, repeats: usize) -> Result<(Vec<Row>, f64), String> {
    let (cores, smt) = (57, 4);
    let hw = Topology::new(cores, smt).expect("non-degenerate").hw_threads() as usize;
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (label, mode_label, shards, mode) in [
        ("incremental", "incremental", 1, ScaleMode::Incremental),
        ("full_rta", "full_recompute", 1, ScaleMode::FullRecompute),
        ("sharded", "sharded", 8, ScaleMode::Sharded { shards: 8, batch: 64 }),
    ] {
        let name = format!("scale_{label}_{tenants}");
        let (seen, t) = measure(&name, repeats, || run_scale(mode, hw, tenants));
        let subs = tenants as u64;
        println!(
            "{name:>24}: {:>5} admitted / {:>4} rejected, fp {:016x}, \
             median {:>9.3} ms = {:>9.0} subs/s, best {:>9.3} ms = {:>9.0} subs/s (n={repeats})",
            seen.admitted,
            seen.rejected,
            seen.fingerprint,
            t.wall_ms,
            t.rate(subs),
            t.wall_ms_min,
            t.rate_best(subs)
        );
        let config = machine(cores, smt)
            .int("tenants", tenants)
            .str("mode", mode_label)
            .int("shards", shards);
        rows.push(
            Row::new()
                .str("bench", &name)
                .raw("config", config)
                .int("admitted", seen.admitted)
                .int("rejected", seen.rejected)
                .str("fingerprint", format_args!("{:016x}", seen.fingerprint))
                .timing(&t, Some(("submissions_per_sec", subs))),
        );
        measured.push((seen.fingerprint, t.rate_best(subs)));
    }
    let ((inc_fp, inc_rate), (full_fp, full_rate)) = (measured[0], measured[1]);
    if inc_fp != full_fp {
        return Err(format!(
            "incremental fingerprint {inc_fp:016x} != full-RTA fingerprint \
             {full_fp:016x} at {tenants} tenants"
        ));
    }
    let speedup = inc_rate / full_rate;
    println!(
        "{:>24}: incremental is {speedup:.1}x the full-RTA baseline at equal \
         decisions (fingerprints match)",
        "speedup"
    );
    Ok((rows, speedup))
}

fn main() -> ExitCode {
    let mut args = Args::from_env("churnbench");
    let quick = args.flag("--quick");
    let check = args.flag("--check");
    let tenants: Option<usize> = args.value("--tenants");
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| String::from("BENCH_churnbench.json"));
    let repeats = args.value("--repeats").unwrap_or(if quick { 3 } else { 5 });
    let mut usage = args.finish();
    if usage.is_ok() && check && tenants.is_none() {
        usage = Err("churnbench: --check gates the --tenants N sweep; give --tenants".to_string());
    }
    if let Err(usage) = usage {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }
    let mode = if quick { "quick" } else { "full" };

    let adm = admission_suite(repeats);
    let churn = churn_suite(quick, repeats);
    let (mut scale, mut speedup) = (vec![], None);
    if let Some(n) = tenants {
        match scale_suite(n, repeats) {
            Ok((rows, ratio)) => (scale, speedup) = (rows, Some(ratio)),
            Err(diverged) => {
                eprintln!("churnbench: FATAL — {diverged}");
                return ExitCode::FAILURE;
            }
        }
    }

    let json = Doc::new("churnbench", mode)
        .array("admission", &adm)
        .array("churn", &churn)
        .array("scale", &scale)
        .finish();
    std::fs::write(&out_path, json).expect("write benchmark output");
    println!("churnbench: wrote {out_path}");

    if check {
        let speedup = speedup.expect("usage: --check runs the --tenants sweep");
        if speedup < MIN_SPEEDUP {
            eprintln!(
                "churnbench: FAIL — incremental is only {speedup:.1}× the full-RTA \
                 baseline (floor {MIN_SPEEDUP:.0}×)"
            );
            return ExitCode::FAILURE;
        }
        println!("churnbench: check passed (fingerprints equal, speedup ≥ {MIN_SPEEDUP:.0}×)");
    }
    ExitCode::SUCCESS
}
