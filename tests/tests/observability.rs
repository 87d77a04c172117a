//! Integration tests for the shared run configuration and outcome and the
//! observability subsystem: golden-trace determinism, export/report
//! agreement (the acceptance criterion), disabled-recorder parity, and
//! every backend producing the same outcome shape.

use rtseed::obs::export;
use rtseed::prelude::*;

/// The paper's always-overrunning workload, small enough for tests: every
/// optional part is terminated at OD, so all four overheads get samples.
fn overrun_config(np: usize) -> SystemConfig {
    let task = TaskSpec::builder("τ1")
        .period(Span::from_secs(1))
        .mandatory(Span::from_millis(250))
        .windup(Span::from_millis(250))
        .optional_parts(np, Span::from_secs(1))
        .build()
        .unwrap();
    SystemConfig::build(
        TaskSet::new(vec![task]).unwrap(),
        Topology::xeon_phi_3120a(),
        AssignmentPolicy::OneByOne,
    )
    .unwrap()
}

fn traced_run(seed: u64) -> RunConfig {
    RunConfig::builder()
        .jobs(10)
        .seed(seed)
        .trace(TraceConfig::enabled())
        .build()
        .unwrap()
}

/// Golden-trace equivalence across hot-path rewrites: the Xeon Phi 3120A
/// preset workload's JSONL export must be byte-identical to the checked-in
/// golden file, which was generated *before* the O(1) ready-queue /
/// event-queue rewrite. Any change to a scheduling decision — a different
/// dispatch order, a shifted tie-break, a dropped event — shows up here as
/// a byte diff. Regenerate deliberately with `RTSEED_REGEN_GOLDEN=1`.
#[test]
fn golden_trace_matches_checked_in_file() {
    let out = SimExecutor::new(overrun_config(8), traced_run(42)).run();
    let jsonl = export::jsonl(&out.trace);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/sim_trace_phi_np8.jsonl");
    if std::env::var_os("RTSEED_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &jsonl).expect("write golden trace");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with RTSEED_REGEN_GOLDEN=1");
    if jsonl != golden {
        let diverged = jsonl
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|i| {
                format!(
                    "first divergence at line {}:\n  got:    {}\n  golden: {}",
                    i + 1,
                    jsonl.lines().nth(i).unwrap_or(""),
                    golden.lines().nth(i).unwrap_or(""),
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, golden {}",
                    jsonl.lines().count(),
                    golden.lines().count()
                )
            });
        panic!(
            "trace diverged from golden file — a scheduling decision changed.\n{diverged}\n\
             If the change is intentional, regenerate the golden file with\n\
             `RTSEED_REGEN_GOLDEN=1 cargo test -p integration-tests --test observability`\n\
             and commit the diff (see tests/golden/README.md)."
        );
    }
}

#[test]
fn golden_trace_same_seed_byte_identical_exports() {
    let a = SimExecutor::new(overrun_config(8), traced_run(42)).run();
    let b = SimExecutor::new(overrun_config(8), traced_run(42)).run();
    assert!(!a.trace.is_empty());
    assert_eq!(export::jsonl(&a.trace), export::jsonl(&b.trace));
    assert_eq!(
        export::chrome_trace(&a.trace, &a.metrics),
        export::chrome_trace(&b.trace, &b.metrics)
    );
}

#[test]
fn different_seed_changes_the_stream() {
    let a = SimExecutor::new(
        overrun_config(8),
        RunConfig::builder()
            .jobs(10)
            .seed(1)
            .load(BackgroundLoad::CpuMemoryLoad)
            .trace(TraceConfig::enabled())
            .build()
            .unwrap(),
    )
    .run();
    let b = SimExecutor::new(
        overrun_config(8),
        RunConfig::builder()
            .jobs(10)
            .seed(2)
            .load(BackgroundLoad::CpuMemoryLoad)
            .trace(TraceConfig::enabled())
            .build()
            .unwrap(),
    )
    .run();
    assert_ne!(export::jsonl(&a.trace), export::jsonl(&b.trace));
}

/// The acceptance criterion: the Δm/Δb/Δs/Δe histogram summaries embedded
/// in the Chrome export match the `OverheadReport` values for the same
/// seed.
#[test]
fn chrome_export_histograms_match_overhead_report() {
    let out = SimExecutor::new(overrun_config(8), traced_run(7)).run();
    let json = export::chrome_trace(&out.trace, &out.metrics);
    for kind in OverheadKind::ALL {
        let count = out.overheads.count(kind) as u64;
        assert!(count > 0, "{} must be sampled", kind.symbol());
        let expected = format!(
            "\"{}\":{{\"count\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{}",
            kind.symbol(),
            count,
            out.overheads.mean(kind).as_nanos(),
            out.metrics.overhead(kind).min(),
            out.overheads.max(kind).as_nanos(),
        );
        assert!(json.contains(&expected), "missing {expected} in {json}");
    }
}

/// Disabling the recorder must not change what is measured: same seed,
/// recorder on vs off, identical overheads and QoS.
#[test]
fn disabled_recorder_does_not_change_reported_overheads() {
    let traced = SimExecutor::new(overrun_config(8), traced_run(11)).run();
    let untraced = SimExecutor::new(
        overrun_config(8),
        RunConfig::builder().jobs(10).seed(11).build().unwrap(),
    )
    .run();
    assert!(untraced.trace.is_empty());
    assert!(!traced.trace.is_empty());
    assert_eq!(
        traced.overheads, untraced.overheads,
        "overheads must not depend on tracing"
    );
    assert_eq!(
        traced.qos.aggregate_ratio(),
        untraced.qos.aggregate_ratio()
    );
    assert_eq!(traced.metrics, untraced.metrics);
}

#[test]
fn bounded_ring_drops_oldest_and_counts() {
    let run = RunConfig::builder()
        .jobs(10)
        .trace(TraceConfig::bounded(16))
        .build()
        .unwrap();
    let out = SimExecutor::new(overrun_config(8), run).run();
    assert_eq!(out.trace.len(), 16);
    assert!(out.trace.dropped() > 0);
}

/// Every backend's `run` reads the same `RunConfig` and returns the same
/// `Outcome`: the job count, a non-empty trace and a Chrome export.
#[test]
fn every_backend_runs_traces_and_exports() {
    let system = overrun_config(4);
    let run = traced_run(3);
    // A fast native variant of the same shape (milliseconds, not seconds,
    // so the test stays quick).
    let native = {
        let t = TaskSpec::builder("native")
            .period(Span::from_millis(50))
            .mandatory(Span::from_millis(1))
            .windup(Span::from_millis(1))
            .optional_parts(2, Span::from_millis(5))
            .build()
            .unwrap();
        SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap()
    };
    let native_run = RunConfig {
        jobs: 10,
        attempt_rt: false,
        trace: TraceConfig::enabled(),
        ..RunConfig::default()
    };
    let outcomes = [
        ("sim", SimExecutor::new(system.clone(), run.clone()).run()),
        ("global", GlobalExecutor::from_config(&system, run).run()),
        (
            "native",
            NativeExecutor::new(native, native_run)
                .run(vec![TaskBody::no_op()])
                .expect("run"),
        ),
    ];
    for (backend, out) in outcomes {
        assert_eq!(out.qos.jobs(), 10, "{backend} backend");
        assert!(!out.trace.is_empty(), "{backend} backend");
        // Exports work off every backend's outcome.
        let json = export::chrome_trace(&out.trace, &out.metrics);
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}

#[test]
fn run_config_validation_is_typed() {
    let err = RunConfig::builder()
        .rt_exec_fraction(0.0)
        .build()
        .unwrap_err();
    assert!(matches!(err, RunConfigError::ExecFraction { .. }));
    let err = RunConfig::builder()
        .trace(TraceConfig::bounded(0))
        .build()
        .unwrap_err();
    assert!(matches!(err, RunConfigError::ZeroTraceCapacity));
    // A struct literal skips the builder; `validate` reports the same error.
    let bad = RunConfig {
        rt_exec_fraction: -1.0,
        ..RunConfig::default()
    };
    assert!(matches!(
        bad.validate(),
        Err(RunConfigError::ExecFraction { .. })
    ));
}
