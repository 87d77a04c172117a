//! `perfbench` — one composed tick→order benchmark of the RT-Seed
//! middleware, with per-layer attribution. See `README.md` beside this
//! package for the round, the statistic, every metric and how to read the
//! output.
//!
//! ```text
//! perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]
//! perfbench --compare DIR
//! ```
//!
//! Without `--workload` every workload runs. `--trace 0` (the default)
//! measures the end-to-end metrics with the span recorder off; `--trace 1`
//! records spans around every layer boundary, replays each layer alone and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object with the last workload's result; the exit code is non-zero
//! if any output check failed. `--compare DIR` prints the A/B table for the
//! result lines `ab.sh` collected in `DIR`.

mod alloc;
mod check;
mod compare;
mod json;
mod layers;
mod metrics;
mod round;
mod spans;
mod stats;
mod workloads;

use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Value;
use metrics::{benchmark, Def};
use round::{ratio, Digest, Runner, Timing, EXPORT, RUN, SUBMIT, TRADING};
use spans::Recorder;
use stats::{
    across_rounds, percentile, percentile_band, percentile_sorted, supports_percentile, Across,
    Better,
};
use workloads::{Inputs, Workload};

/// Rounds run and discarded before anything is timed.
const WARMUP_ROUNDS: usize = 5;
/// Set-ups timed per run at least, and the share of the run length they go
/// on for; `setup_s` is their median. A short set-up (`desk_day`: 80 ms)
/// read from five samples moved by a quarter between two runs.
const SETUPS: usize = 5;
const SETUP_SHARE: f64 = 0.1;
/// Spans retained for the trace file (all spans count in the totals).
const SPAN_CAPACITY: usize = 1 << 16;

/// Half-widths of the percentile bands a round's latencies are read at:
/// p50 is the mean of p45..p55, p99 the mean of p98.5..p99.5.
const P50_BAND: f64 = 5.0;
const P99_BAND: f64 = 0.5;

/// How long and how many rounds a measurement may take.
#[derive(Debug, Clone)]
struct Budget {
    seconds: f64,
    rounds: RangeInclusive<usize>,
}

impl Budget {
    fn share(&self, of: f64) -> Budget {
        Budget {
            seconds: self.seconds * of,
            rounds: self.rounds.clone(),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Reported {
    def: &'static Def,
    value: f64,
    /// The spread across rounds behind a host-time value.
    across: Option<Across>,
    /// A simulated time or a count: the same in every run of one seed.
    exact: bool,
}

/// The result of one workload in one mode.
#[derive(Debug)]
struct Report {
    workload: Workload,
    metrics: Vec<Reported>,
    attempted: u64,
    failed: u64,
    /// Failed output checks; the run is correct when there are none.
    failures: Vec<String>,
}

impl Report {
    fn result_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let entry = json::object([
                ("value", Value::Number(m.value)),
                ("unit", Value::String(m.def.unit.clone())),
            ]);
            (m.def.name.as_str(), entry)
        });
        json::object([
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", json::object(metrics)),
        ])
    }

    fn print(&self) {
        println!("== {} == {}", self.workload.name, self.workload.why);
        for m in &self.metrics {
            print!("{:<52} {:>18.6} {:<6}", m.def.name, m.value, m.def.unit);
            if let Some(a) = m.across {
                print!(
                    "  rounds={} q1={:.6} median={:.6} q3={:.6}",
                    a.rounds, a.q1, a.median, a.q3
                );
            }
            println!();
        }
        println!("attempted={} failed={}", self.attempted, self.failed);
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
    }
}

/// Set-up after input generation: a runner warmed up over a cold arena
/// (the arena grows to its high-water mark, the caches fill) and the
/// per-round vectors of the series it is about to run. Peak tracking
/// restarts before the first warm-up round; what is live then — the
/// generated inputs and the harness's own buffers — is returned to be taken
/// off the peak, so that `peak_heap_mb` covers what the rounds allocate,
/// the arena they grow included, and nothing else.
fn warmed(inputs: &Inputs) -> (Runner<'_>, PerRound, u64) {
    let mut runner = Runner::new(inputs);
    let per_round = PerRound::new();
    let harness_bytes = alloc::reset_peak();
    for _ in 0..WARMUP_ROUNDS {
        runner.round(&mut Recorder::disabled());
    }
    (runner, per_round, harness_bytes)
}

/// Rounds the per-round vectors have room for before they grow, so that
/// the harness stays off the allocator while rounds run.
const ROUNDS_RESERVED: usize = 4096;

/// Per-round values of the host-time metrics.
#[derive(Debug)]
struct PerRound {
    round_ms: Vec<f64>,
    admit_p50_us: Vec<f64>,
    admit_p99_us: Vec<f64>,
    admits_per_s: Vec<f64>,
    sched_events_per_s: Vec<f64>,
    tick_to_order_p50_ns: Vec<f64>,
    tick_to_order_p99_ns: Vec<f64>,
    cycles_per_s: Vec<f64>,
    phase_ms: [Vec<f64>; 4],
}

impl PerRound {
    fn new() -> PerRound {
        let reserved = || Vec::with_capacity(ROUNDS_RESERVED);
        PerRound {
            round_ms: reserved(),
            admit_p50_us: reserved(),
            admit_p99_us: reserved(),
            admits_per_s: reserved(),
            sched_events_per_s: reserved(),
            tick_to_order_p50_ns: reserved(),
            tick_to_order_p99_ns: reserved(),
            cycles_per_s: reserved(),
            phase_ms: [reserved(), reserved(), reserved(), reserved()],
        }
    }

    fn push(&mut self, t: &mut Timing, d: &Digest) {
        let secs = |ns: u64| ns as f64 / 1e9;
        self.round_ms.push(t.round_ns() as f64 / 1e6);
        for (phase, ms) in self.phase_ms.iter_mut().enumerate() {
            ms.push(t.phase_ns[phase] as f64 / 1e6);
        }
        t.submit_ns.sort_unstable();
        t.cycle_ns.sort_unstable();
        self.admit_p50_us
            .push(percentile_band(&t.submit_ns, 50.0, P50_BAND) / 1e3);
        if supports_percentile(t.submit_ns.len(), 99.0) {
            self.admit_p99_us
                .push(percentile_band(&t.submit_ns, 99.0, P99_BAND) / 1e3);
        }
        self.admits_per_s
            .push(t.submit_ns.len() as f64 / secs(t.phase_ns[SUBMIT]));
        self.sched_events_per_s
            .push(d.events as f64 / secs(t.phase_ns[RUN]));
        self.tick_to_order_p50_ns
            .push(percentile_band(&t.cycle_ns, 50.0, P50_BAND));
        self.tick_to_order_p99_ns
            .push(percentile_band(&t.cycle_ns, 99.0, P99_BAND));
        self.cycles_per_s
            .push(d.cycles as f64 / secs(t.phase_ns[TRADING]));
    }
}

/// The outcome of a measured series of rounds.
struct Series {
    per_round: PerRound,
    /// The digest every round agreed on.
    digest: Digest,
    /// Phase allocations of the last round (identical in every round).
    phase_alloc: [alloc::Snapshot; 4],
    jsonl_bytes: u64,
    /// Peak live bytes since the last `alloc::reset_peak`, harness included.
    peak_bytes: u64,
    failures: Vec<String>,
}

/// Runs rounds until the budget is spent, checking that the deterministic
/// half never changes.
fn run_series(
    runner: &mut Runner<'_>,
    rec: &mut Recorder,
    budget: &Budget,
    mut per_round: PerRound,
) -> Series {
    let mut failures = Vec::new();
    let mut agreed: Option<(Digest, [u64; 4])> = None;
    let start = Instant::now();
    let limit = Duration::from_secs_f64(budget.seconds);
    let mut rounds = 0;
    while rounds < *budget.rounds.start()
        || (rounds < *budget.rounds.end() && start.elapsed() < limit)
    {
        rec.set_round(rounds as u32);
        let digest = runner.round(rec);
        per_round.push(&mut runner.timing, &digest);
        let allocs = runner.timing.phase_alloc.map(|a| a.allocs);
        match &agreed {
            None => agreed = Some((digest, allocs)),
            Some((first, first_allocs)) => {
                if *first != digest && failures.is_empty() {
                    failures.push(format!("round {rounds} differs: {digest:?} != {first:?}"));
                }
                // Export allocations follow host-timestamp widths.
                if first_allocs[..EXPORT] != allocs[..EXPORT] && failures.is_empty() {
                    failures.push(format!(
                        "round {rounds} allocates differently: {allocs:?} != {first_allocs:?}"
                    ));
                }
            }
        }
        rounds += 1;
    }
    let (digest, _) = agreed.expect("at least one round ran");
    Series {
        per_round,
        digest,
        phase_alloc: runner.timing.phase_alloc,
        jsonl_bytes: runner.timing.jsonl_bytes,
        peak_bytes: alloc::peak_bytes(),
        failures,
    }
}

fn host(def: &'static Def, per_round: &[f64]) -> Reported {
    let across = across_rounds(per_round, def.better);
    Reported {
        def,
        value: across.best,
        across: Some(across),
        exact: false,
    }
}

/// A host-dependent value measured once a run.
fn once(def: &'static Def, value: f64) -> Reported {
    Reported {
        def,
        value,
        across: None,
        exact: false,
    }
}

/// A simulated time or a count.
fn exact(def: &'static Def, value: f64) -> Reported {
    Reported {
        exact: true,
        ..once(def, value)
    }
}

/// `--trace 0`: the end-to-end metrics, span recorder off.
fn end_to_end(w: Workload, seed: u64, budget: &Budget) -> Report {
    let mut setups = Vec::new();
    let start = Instant::now();
    while setups.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_SHARE * budget.seconds {
        let t0 = Instant::now();
        let inputs = (w.build)(seed);
        std::hint::black_box(warmed(&inputs));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = percentile(&mut setups, 50.0);

    let inputs = (w.build)(seed);
    let (mut runner, per_round, harness_bytes) = warmed(&inputs);
    let series = run_series(&mut runner, &mut Recorder::disabled(), budget, per_round);
    let (p, d) = (&series.per_round, &series.digest);

    let mut failures = series.failures;
    failures.extend(check::verify(
        w.name,
        seed,
        &inputs,
        d,
        &layers::admission(&inputs),
        &layers::sampled_admission(&inputs),
    ));

    let metrics = benchmark()
        .end_to_end
        .iter()
        .map(|def| match def.name.as_str() {
            "setup_s" => once(def, setup_s),
            "round_ms" => host(def, &p.round_ms),
            "sched_events_per_s" => host(def, &p.sched_events_per_s),
            "tick_to_order_p50_ns" => host(def, &p.tick_to_order_p50_ns),
            "tick_to_order_p99_ns" => host(def, &p.tick_to_order_p99_ns),
            "cycles_per_s" => host(def, &p.cycles_per_s),
            "deadline_met_ppm" => exact(def, 1e6 - d.miss_ppm()),
            "qos_ppm" => exact(def, d.qos_ppm()),
            "admitted_ppm" => exact(def, d.admitted_ppm()),
            "allocs_per_event" => exact(def, ratio(series.phase_alloc[RUN].allocs, d.events)),
            "allocs_per_cycle" => exact(def, ratio(series.phase_alloc[TRADING].allocs, d.cycles)),
            "peak_heap_mb" => once(
                def,
                series.peak_bytes.saturating_sub(harness_bytes) as f64 / 1e6,
            ),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        })
        .collect();
    Report {
        workload: w,
        metrics,
        attempted: d.attempted(),
        failed: d.failed(),
        failures,
    }
}

/// `--trace 1`: spans on, each layer replayed alone, per-layer metrics.
fn per_layer(w: Workload, seed: u64, budget: &Budget) -> Report {
    let inputs = (w.build)(seed);
    let (mut runner, per_round, harness_bytes) = warmed(&inputs);

    // Untraced rounds first: the baseline the tracing overhead is taken
    // against, and the host-time numbers the layer metrics derive from.
    let plain = run_series(
        &mut runner,
        &mut Recorder::disabled(),
        &budget.share(0.25),
        per_round,
    );
    let mut rec = Recorder::new(SPAN_CAPACITY);
    let traced = run_series(&mut runner, &mut rec, &budget.share(0.35), PerRound::new());
    let d = &plain.digest;
    let mut failures = plain.failures;
    failures.extend(traced.failures);
    if traced.digest != *d {
        failures.push("the traced rounds decide differently from the untraced ones".into());
    }
    let fastest = |v: &[f64]| across_rounds(v, Better::Lower).best;

    let record_ns_per_event = if inputs.observed {
        recording_cost(&mut runner, d, &budget.share(0.15))
    } else {
        0.0
    };

    let build_ns = rec.scope("replay.model", || layers::taskspec_build(&inputs));
    let taskgen_ns = rec.scope("replay.analysis.taskgen", || layers::taskgen(&inputs));
    let churn_ms = rec.scope("replay.sim.churn", || layers::churn_plan_build(&inputs));
    let (mut adm, sampled) = rec.scope("replay.analysis.admission", || {
        // The steadiest of three passes: one pass is a single measurement.
        let adm = (0..3)
            .map(|_| layers::admission(&inputs))
            .min_by_key(|a| a.try_admit_ns.iter().sum::<u64>())
            .expect("three passes ran");
        (adm, layers::sampled_admission(&inputs))
    });
    let (shard_ms, shard_parallel) =
        rec.scope("replay.analysis.shard", || layers::shard_batches(&inputs));
    let residents = runner.final_residents();
    let offline = rec.scope("replay.analysis.partition", || {
        layers::offline(&inputs, &residents)
    });
    let system = &offline.system;
    let rmwp_ns = rec.scope("replay.analysis.rmwp", || layers::rmwp_per_cpu(system));
    let sim = rec.scope("replay.core.exec_sim", || {
        layers::exec_sim(system, &inputs.run)
    });
    let global = rec.scope("replay.core.exec_global", || {
        layers::exec_global(system, &inputs.run)
    });
    let (eventq_ns, eventq_ops) = rec.scope("replay.sim.eventq", || {
        let depth = residents.len() + inputs.topology.hw_threads() as usize;
        layers::eventq(d.events, depth, inputs.run.seed)
    });
    let (readyq_ns, readyq_ops) = rec.scope("replay.sim.readyq", || {
        layers::readyq(&residents, inputs.run.jobs)
    });
    let overhead_ns = rec.scope("replay.sim.overhead", || {
        layers::overhead_model(&inputs, &residents)
    });
    let trading = rec.scope("replay.trading", || layers::trading(&inputs));

    failures.extend(check::verify(w.name, seed, &inputs, d, &adm, &sampled));
    match write_out(&format!("trace-{}.json", w.name), &rec.chrome_json()) {
        Ok(path) => println!(
            "spans: {path} ({} retained, {} more only in the totals)",
            rec.retained(),
            rec.dropped()
        ),
        Err(e) => failures.push(format!("cannot write the trace file: {e}")),
    }
    println!(
        "{:<28} {:>10} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in rec.totals() {
        println!(
            "{name:<28} {:>10} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    let pp = &plain.per_round;
    let span_ms = |name: &str| rec.total(name).mean_ns() / 1e6;
    let serve_run_ms = fastest(&pp.phase_ms[RUN]);
    adm.try_admit_ns.sort_unstable();
    let try_admit_p50 = percentile_sorted(&adm.try_admit_ns, 50.0) as f64;
    // Parts analysed in the traced rounds: `d.analyses` a round.
    let traced_parts = d.analyses * traced.per_round.round_ms.len() as u64;
    let jsonl = rec.total("jsonl");
    // The dispatcher's share is what the bare executor needs for as many
    // events as the serving run processed; what phase 1 and the serving
    // run take beyond it is control plane (admission, churn, deferred
    // queue, guard).
    let round_ms = fastest(&pp.round_ms);
    let share = |phase: usize| 1e6 * fastest(&pp.phase_ms[phase]) / round_ms;
    let dispatcher_ms = (d.events as f64 * sim.ns_per_event() / 1e6).min(serve_run_ms);
    let control_ms = fastest(&pp.phase_ms[SUBMIT]) + serve_run_ms - dispatcher_ms;

    let value = |name: &str| -> f64 {
        match name {
            "model.taskspec.build_ns" => build_ns,
            "analysis.taskgen.ns_per_set" => taskgen_ns,
            "analysis.admission.try_admit_p50_ns" => try_admit_p50,
            "analysis.admission.try_admit_p99_ns" => {
                percentile_sorted(&adm.try_admit_ns, 99.0) as f64
            }
            "analysis.admission.evict_p50_ns" => median_or_zero(&adm.evict_ns),
            "analysis.admission.od_update_p50_ns" => median_or_zero(&adm.od_update_ns),
            "analysis.admission.attempts" => adm.try_admit_ns.len() as f64,
            "analysis.admission.admitted" => adm.admitted as f64,
            "analysis.admission.rejected" => adm.rejected as f64,
            "analysis.admission.rta_cache_hit_ppm" => {
                round::ppm(adm.cache_hits, adm.cache_hits + adm.cache_recomputes)
            }
            "analysis.admission.rta_recomputes_per_decision" => {
                ratio(adm.cache_recomputes, adm.try_admit_ns.len() as u64)
            }
            "analysis.admission.full_recompute_ns_per_decision" => sampled.full_ns_per_decision,
            "analysis.rmwp.analyze_ns_per_cpu" => rmwp_ns,
            "analysis.partition.compute_ms" => offline.partition_ms,
            "analysis.partition.left_out" => offline.left_out as f64,
            "analysis.shard.admit_batch_ms" => shard_ms,
            "analysis.shard.parallel_rounds" => shard_parallel as f64,
            "sim.eventq.ns_per_op" => eventq_ns,
            "sim.eventq.ops" => eventq_ops as f64,
            "sim.readyq.ns_per_op" => readyq_ns,
            "sim.readyq.ops" => readyq_ops as f64,
            "sim.overhead.ns_per_sample" => overhead_ns,
            "sim.churn.plan_build_ms" => churn_ms,
            "core.exec_sim.run_ms" => sim.run_ms,
            "core.exec_sim.ns_per_event" => sim.ns_per_event(),
            "core.exec_sim.events" => sim.events as f64,
            "core.engine.delta_m_sim_ns" => d.delta_mean_ns[0] as f64,
            "core.engine.delta_b_sim_ns" => d.delta_mean_ns[1] as f64,
            "core.engine.delta_s_sim_ns" => d.delta_mean_ns[2] as f64,
            "core.engine.delta_e_sim_ns" => d.delta_mean_ns[3] as f64,
            "core.engine.response_p99_sim_ns" => d.response_p99_ns as f64,
            "core.engine.release_jitter_p99_sim_ns" => d.release_jitter_p99_ns as f64,
            "core.exec_global.run_ms" => global.run_ms,
            "core.exec_global.ns_per_event" => global.ns_per_event(),
            "core.serve.run_ms" => serve_run_ms,
            "core.serve.overhead_ppm" => {
                1e6 * (serve_run_ms * 1e6 / d.events as f64 / sim.ns_per_event() - 1.0)
            }
            "core.serve.submit_overhead_ns" => fastest(&pp.admit_p50_us) * 1e3 - try_admit_p50,
            "core.serve.deferred_submissions" => d.counters.deferred_submissions as f64,
            "core.serve.deferred_admissions" => d.counters.deferred_admissions as f64,
            "core.serve.admission_rounds" => d.counters.admission_rounds as f64,
            "core.serve.deferred_latency_p50_sim_ns" => d.deferred_latency_p50_ns as f64,
            "core.guard.sheds" => d.counters.sheds as f64,
            "core.guard.quarantines" => d.counters.quarantines as f64,
            "core.guard.evictions" => d.counters.evictions as f64,
            "core.guard.recoveries" => d.counters.recoveries as f64,
            "core.obs.record_ns_per_event" => record_ns_per_event,
            "core.obs.trace_events" => d.trace_events as f64,
            "core.obs.dropped_events" => d.trace_dropped as f64,
            "core.obs.jsonl_ms" => span_ms("jsonl"),
            "core.obs.jsonl_mb_per_s" => {
                if jsonl.total_ns == 0 {
                    0.0
                } else {
                    traced.jsonl_bytes as f64 * jsonl.count as f64 * 1e3 / jsonl.total_ns as f64
                }
            }
            "core.obs.chrome_ms" => span_ms("chrome"),
            "core.obs.tenant_trace_ms" => span_ms("tenant_trace"),
            "trading.market.next_tick_ns" => trading.next_tick_ns,
            "trading.fault.poll_ns" => trading.poll_ns,
            "trading.fault.ticks_rejected" => trading.ticks_rejected as f64,
            "trading.fault.dropouts" => trading.dropouts as f64,
            "trading.indicators.update_ns" => trading.indicator_update_ns,
            "trading.strategy.on_tick_ns" => trading.strategy_on_tick_ns,
            "trading.strategy.opinion_ppm" => trading.opinion_ppm,
            "trading.imprecise.ingest_ns" => rec.total("ingest").mean_ns(),
            "trading.imprecise.analyze_ns_per_part" => {
                ratio(rec.total("analyze").total_ns, traced_parts)
            }
            "trading.imprecise.decide_ns" => rec.total("decide").mean_ns(),
            "trading.execution.submit_ns" => trading.venue_submit_ns,
            "trading.execution.orders" => d.orders as f64,
            "trading.execution.fills" => d.fills as f64,
            "alloc.admission.per_submission" => {
                ratio(plain.phase_alloc[SUBMIT].allocs, d.submitted)
            }
            "alloc.serve_run.per_event" => ratio(plain.phase_alloc[RUN].allocs, d.events),
            "alloc.trading.per_cycle" => ratio(plain.phase_alloc[TRADING].allocs, d.cycles),
            "alloc.export.bytes" => plain.phase_alloc[EXPORT].bytes as f64,
            "alloc.peak_bytes" => plain.peak_bytes.saturating_sub(harness_bytes) as f64,
            "trace.overhead_ppm" => 1e6 * (fastest(&traced.per_round.round_ms) / round_ms - 1.0),
            "trace.rounds" => traced.per_round.round_ms.len() as f64,
            "share.submit_phase_ppm" => share(SUBMIT),
            "share.serve_run_ppm" => share(RUN),
            "share.trading_phase_ppm" => share(TRADING),
            "share.export_ppm" => share(EXPORT),
            "share.control_plane_ppm" => 1e6 * control_ms / round_ms,
            "share.dispatcher_ppm" => 1e6 * dispatcher_ms / round_ms,
            "admit_p50_us" => fastest(&pp.admit_p50_us),
            "admit_p99_us" => {
                if pp.admit_p99_us.is_empty() {
                    0.0
                } else {
                    fastest(&pp.admit_p99_us)
                }
            }
            "admits_per_s" => across_rounds(&pp.admits_per_s, Better::Higher).best,
            "miss_ppm" => d.miss_ppm(),
            "failed_ppm" => round::ppm(d.failed() + d.misses, d.attempted()),
            other => unreachable!("no measurement for per-layer metric {other}"),
        }
    };
    let metrics = benchmark()
        .per_layer
        .iter()
        .map(|def| once(def, value(&def.name)))
        .collect();
    Report {
        workload: w,
        metrics,
        attempted: d.attempted(),
        failed: d.failed(),
        failures,
    }
}

/// `core.obs`: what recording one trace event costs the serving run. The
/// observed workload and a copy with tracing switched off run alternate
/// rounds, so each pair shares the host's mood; the median difference of
/// their run phases is divided by the events the observed run recorded.
fn recording_cost(observed: &mut Runner<'_>, d: &Digest, budget: &Budget) -> f64 {
    let mut quiet = observed.inputs.clone();
    quiet.observed = false;
    quiet.run.trace = rtseed::obs::TraceConfig::disabled();
    let (mut quiet, ..) = warmed(&quiet);
    let mut rec = Recorder::disabled();
    let mut extra_ns = Vec::new();
    let start = Instant::now();
    while extra_ns.len() < 5 || start.elapsed().as_secs_f64() < budget.seconds {
        observed.round(&mut rec);
        let with = observed.timing.phase_ns[RUN] as f64;
        quiet.round(&mut rec);
        extra_ns.push(with - quiet.timing.phase_ns[RUN] as f64);
    }
    percentile(&mut extra_ns, 50.0) / (d.trace_events + d.trace_dropped).max(1) as f64
}

fn median_or_zero(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(&mut samples.to_vec(), 50.0) as f64
    }
}

/// Writes `text` to `out/<file>` in this package's directory.
fn write_out(file: &str, text: &str) -> std::io::Result<String> {
    let dir = check::package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    /// `--compare DIR`: report on collected A/B results instead of running.
    compare: Option<std::path::PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: check::DEFAULT_SEED,
        seconds: benchmark().run_seconds,
        trace: false,
        selfcheck: false,
        compare: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = workloads::by_name(&name).ok_or_else(|| {
                    let known: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?;
                parsed.workloads.push(w);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be within (0, 600], got {s}"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--selfcheck" => parsed.selfcheck = true,
            "--compare" => parsed.compare = Some(value("a directory")?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.selfcheck && parsed.trace {
        return Err("--selfcheck compares end-to-end metrics; it takes --trace 0".into());
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = workloads::all();
    }
    Ok(parsed)
}

/// Runs every requested workload once; returns the reports.
fn run_set(args: &Args) -> Vec<Report> {
    let budget = Budget {
        seconds: args.seconds,
        rounds: 10..=usize::MAX,
    };
    args.workloads
        .iter()
        .map(|&w| {
            let report = if args.trace {
                per_layer(w, args.seed, &budget)
            } else {
                end_to_end(w, args.seed, &budget)
            };
            report.print();
            report
        })
        .collect()
}

/// `--selfcheck`: the same set twice in one process; every end-to-end
/// metric of the two must agree within its bound, the exact ones exactly.
fn selfcheck(a: &[Report], b: &[Report]) -> bool {
    let mut ok = true;
    println!("== selfcheck: second set against the first ==");
    for (ra, rb) in a.iter().zip(b) {
        for (ma, mb) in ra.metrics.iter().zip(&rb.metrics) {
            let worse = ma.def.better.worsening(ma.value, mb.value);
            let within = if ma.exact {
                ma.value == mb.value
            } else {
                worse.abs() <= ma.def.bound
            };
            ok &= within;
            println!(
                "{:<16} {:<24} {:>16.6} {:>16.6} {:>+8.2} % of {:>4.0} % {}",
                ra.workload.name,
                ma.def.name,
                ma.value,
                mb.value,
                100.0 * worse,
                100.0 * ma.def.bound,
                if within { "ok" } else { "OUT OF BOUND" },
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]");
            eprintln!("       perfbench --compare DIR");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.compare {
        return match compare::report(dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: seed {} · {} s a workload · trace {} · {threads} hardware threads available",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let reports = run_set(&args);
    let mut ok = reports.iter().all(|r| r.failures.is_empty());
    if args.selfcheck {
        let second = run_set(&args);
        ok &= second.iter().all(|r| r.failures.is_empty());
        ok &= selfcheck(&reports, &second);
    }
    let all = json::object(reports.iter().map(|r| (r.workload.name, r.result_json())));
    let summary = json::object([
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("workloads", all),
    ]);
    if let Err(e) = write_out("perfbench.json", &(summary.to_json() + "\n")) {
        eprintln!("perfbench: cannot write out/perfbench.json: {e}");
        ok = false;
    }
    let last = reports.last().expect("at least one workload ran");
    println!("{}", last.result_json().to_json());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = flags(&[
            "--workload",
            "tenant_storm",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "tenant_storm");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.selfcheck),
            (7, 20.0, true, false)
        );
        // Defaults: every workload, the recorded seed, the benchmark's
        // run length, spans off.
        let d = flags(&[]).unwrap();
        assert_eq!(d.workloads.len(), benchmark().workloads.len());
        assert_eq!((d.seed, d.trace), (check::DEFAULT_SEED, false));
        assert_eq!(d.seconds, benchmark().run_seconds);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds"],
            &["--bogus"],
        ] {
            assert!(flags(bad).is_err(), "{bad:?}");
        }
    }

    /// A short `desk_day` run reports every metric `BENCHMARK.json` lists
    /// — end-to-end names with spans off, per-layer names with spans on,
    /// an unlisted or unmeasured name panics — and its outputs check out.
    #[test]
    fn a_smoke_run_reports_every_listed_metric() {
        let budget = Budget {
            seconds: 0.0,
            rounds: 2..=3,
        };
        let desk_day = workloads::by_name("desk_day").unwrap();
        for (listed, report) in [
            (&benchmark().end_to_end, end_to_end(desk_day, 11, &budget)),
            (&benchmark().per_layer, per_layer(desk_day, 11, &budget)),
        ] {
            assert_eq!(report.failures, Vec::<String>::new());
            let result = report.result_json();
            let reported: Vec<&str> = result
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            let listed: Vec<&str> = listed.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(reported, listed);
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
        }
    }
}
