//! Per-layer replays: each feeds the workload's own inputs into one layer
//! alone, through that layer's public functions, and times it from
//! outside. The round says what the composed path costs; these say where
//! to look when it moves.
//!
//! Every replay does a fixed amount of work for given inputs, so its
//! counts repeat exactly; its times are single measurements on a noisy
//! host and carry no bound.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use rtseed::serve::mandatory_priority_for_period;
use rtseed::{GlobalExecutor, RunConfig, SimArena, SimExecutor, SystemConfig};
use rtseed_analysis::taskgen;
use rtseed_analysis::{
    AdmissionDecision, AdmissionEngine, RmwpAnalysis, ShardedAdmission, TaskKey,
};
use rtseed_model::{Span, TaskSet, TaskSpec, Time};
use rtseed_sim::{splitmix64, ChurnAction, ChurnPlan, EventQueue, FifoReadyQueue, OverheadModel};
use rtseed_trading::execution::{ExecutionConfig, Order, PaperVenue, Side};
use rtseed_trading::fault::{FaultyFeed, FeedFaultPlan, FeedWatchdog};
use rtseed_trading::indicators::{BollingerBands, Macd, Rsi};
use rtseed_trading::market::{collect_ticks, SyntheticFeed, TickSource};

use crate::round::{fnv1a, strategy_for, FAULT_RATES, FNV_OFFSET, HEURISTIC, POLICY, WATCHDOG};
use crate::workloads::Inputs;

/// Nanoseconds since `t0`.
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// One step of the admission stream a workload puts to the control plane.
enum Op<'a> {
    Submit(&'a str, &'a [TaskSpec]),
    Depart(&'a str),
}

/// Phase-1 submissions, then the churn plan in replay order.
fn stream(inputs: &Inputs) -> Vec<Op<'_>> {
    let initial = inputs.initial.iter().map(|t| Op::Submit(&t.name, &t.tasks));
    let churn = inputs.churn.events().iter().map(|e| match &e.action {
        ChurnAction::Arrive { name, tasks } => Op::Submit(name, tasks),
        ChurnAction::Depart { name } => Op::Depart(name),
    });
    initial.chain(churn).collect()
}

/// Every task set the workload submits, in stream order.
fn submissions(inputs: &Inputs) -> Vec<&[TaskSpec]> {
    stream(inputs)
        .into_iter()
        .filter_map(|op| match op {
            Op::Submit(_, tasks) => Some(tasks),
            Op::Depart(_) => None,
        })
        .collect()
}

/// `model`: rebuilds every submitted `TaskSpec` through its builder.
/// Returns nanoseconds per spec.
pub fn taskspec_build(inputs: &Inputs) -> f64 {
    let specs: Vec<&TaskSpec> = submissions(inputs).into_iter().flatten().collect();
    let t0 = Instant::now();
    for spec in &specs {
        let mut b = TaskSpec::builder(spec.name());
        b.period(spec.period()).mandatory(spec.mandatory());
        if !spec.windup().is_zero() {
            b.windup(spec.windup());
        }
        for &part in spec.optional_parts() {
            b.optional_part(part);
        }
        black_box(b.build().expect("a built spec rebuilds"));
    }
    ns_since(t0) as f64 / specs.len() as f64
}

/// `analysis.taskgen`: reruns the `generate` calls behind the workload's
/// task sets. Returns nanoseconds per set (0 for hand-shaped workloads).
pub fn taskgen(inputs: &Inputs) -> f64 {
    if inputs.taskgen.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for (cfg, seed) in &inputs.taskgen {
        black_box(taskgen::generate(cfg, *seed));
    }
    ns_since(t0) as f64 / inputs.taskgen.len() as f64
}

/// `sim.churn`: rebuilds the churn plan event by event. Returns
/// milliseconds.
pub fn churn_plan_build(inputs: &Inputs) -> f64 {
    let events = inputs.churn.events().to_vec();
    let t0 = Instant::now();
    let mut plan = ChurnPlan::new();
    for event in events {
        plan.push(event);
    }
    black_box(plan.len());
    ns_since(t0) as f64 / 1e6
}

/// What the bare `AdmissionEngine` did with the workload's stream.
#[derive(Debug, Default)]
pub struct AdmissionReplay {
    pub try_admit_ns: Vec<u64>,
    pub evict_ns: Vec<u64>,
    pub od_update_ns: Vec<u64>,
    pub admitted: u64,
    pub rejected: u64,
    /// FNV-1a over the phase-1 verdicts, comparable with
    /// `Digest::submit_fp`.
    pub submit_fp: u64,
    pub cache_hits: u64,
    pub cache_recomputes: u64,
}

/// `analysis.admission`: the stream through a bare engine — every
/// submission a timed `try_admit`, every departure of an admitted tenant a
/// timed `evict`, then a timed in-place `od_update` of up to 256 residents.
/// No deferred queue: a submission the engine turns away is not retried.
pub fn admission(inputs: &Inputs) -> AdmissionReplay {
    let mut eng = AdmissionEngine::new(inputs.topology.hw_threads() as usize, HEURISTIC);
    let mut resident: HashMap<&str, (Vec<TaskKey>, &[TaskSpec])> = HashMap::new();
    let mut r = AdmissionReplay {
        submit_fp: FNV_OFFSET,
        ..AdmissionReplay::default()
    };
    for (i, op) in stream(inputs).into_iter().enumerate() {
        match op {
            Op::Submit(name, tasks) => {
                let t0 = Instant::now();
                let decision = eng.try_admit(tasks);
                r.try_admit_ns.push(ns_since(t0));
                if i < inputs.initial.len() {
                    fnv1a(&mut r.submit_fp, u64::from(decision.is_admitted()));
                }
                match decision {
                    AdmissionDecision::Admitted(adm) => {
                        r.admitted += 1;
                        let keys = adm.tasks.iter().map(|t| t.key).collect();
                        resident.insert(name, (keys, tasks));
                    }
                    _ => r.rejected += 1,
                }
            }
            Op::Depart(name) => {
                if let Some((keys, _)) = resident.remove(name) {
                    let t0 = Instant::now();
                    black_box(eng.evict(&keys));
                    r.evict_ns.push(ns_since(t0));
                }
            }
        }
    }
    let mut residents: Vec<_> = resident.into_values().collect();
    residents.sort_unstable_by_key(|(keys, _)| keys[0]);
    for (keys, tasks) in residents.iter().take(256) {
        for (key, spec) in keys.iter().zip(*tasks) {
            let t0 = Instant::now();
            black_box(eng.od_update(*key, spec));
            r.od_update_ns.push(ns_since(t0));
        }
    }
    r.cache_hits = eng.cache().total_hits();
    r.cache_recomputes = eng.cache().total_recomputes();
    r
}

/// Cached against full-recompute admission on every tenth submission.
#[derive(Debug)]
pub struct SampledAdmission {
    /// FNV-1a over every decision's placements and granted ODs.
    pub cached_fp: u64,
    pub full_fp: u64,
    pub full_ns_per_decision: f64,
}

/// `analysis.admission`, the write-through check: a 1-in-10 sample of the
/// submissions goes through a caching engine and through
/// `without_cache()`; both must decide identically.
pub fn sampled_admission(inputs: &Inputs) -> SampledAdmission {
    let sample: Vec<&[TaskSpec]> = submissions(inputs).into_iter().step_by(10).collect();
    let hw = inputs.topology.hw_threads() as usize;
    let run = |mut eng: AdmissionEngine| {
        let mut fp = FNV_OFFSET;
        let t0 = Instant::now();
        for (i, tasks) in sample.iter().enumerate() {
            fnv1a(&mut fp, i as u64);
            match eng.try_admit(tasks) {
                AdmissionDecision::Admitted(adm) => {
                    for t in &adm.tasks {
                        fnv1a(&mut fp, t.hw_thread.index() as u64);
                        fnv1a(&mut fp, t.optional_deadline.as_nanos());
                    }
                    for u in &adm.od_updates {
                        fnv1a(&mut fp, u.key.0);
                        fnv1a(&mut fp, u.optional_deadline.as_nanos());
                    }
                }
                _ => fnv1a(&mut fp, u64::MAX),
            }
        }
        (fp, ns_since(t0) as f64 / sample.len() as f64)
    };
    let (cached_fp, _) = run(AdmissionEngine::new(hw, HEURISTIC));
    let (full_fp, full_ns_per_decision) = run(AdmissionEngine::new(hw, HEURISTIC).without_cache());
    SampledAdmission {
        cached_fp,
        full_fp,
        full_ns_per_decision,
    }
}

/// `analysis.shard`: every submission through two shards in waves of 64.
/// Returns (milliseconds, rounds that fanned out to two threads).
pub fn shard_batches(inputs: &Inputs) -> (f64, u64) {
    let all: Vec<Vec<TaskSpec>> = submissions(inputs).into_iter().map(<[_]>::to_vec).collect();
    let mut ctl = ShardedAdmission::new(inputs.topology.hw_threads() as usize, 2, HEURISTIC);
    let t0 = Instant::now();
    for wave in all.chunks(64) {
        black_box(ctl.admit_batch(wave));
    }
    (ns_since(t0) as f64 / 1e6, ctl.parallel_rounds())
}

/// The one-shot executors give every task its own RTQ level, and the band
/// has 49 of them.
const OFFLINE_TASKS: usize = 49;

/// The offline view of the final resident population.
#[derive(Debug)]
pub struct Offline {
    pub system: SystemConfig,
    /// `analysis.partition`: milliseconds of `SystemConfig` construction
    /// (priorities, placement, per-thread RMWP).
    pub partition_ms: f64,
    /// Residents outside the offline set.
    pub left_out: usize,
}

/// `analysis.partition`: places the residents offline — all of them when
/// they fit the one-shot model's 49 priority levels, else an evenly
/// strided sample of 49. Should the one-shot placement still fail where
/// incremental admission succeeded, an eighth of the set is shed at a time.
pub fn offline(inputs: &Inputs, residents: &[TaskSpec]) -> Offline {
    let stride = residents.len().div_ceil(OFFLINE_TASKS).max(1);
    let mut tasks: Vec<TaskSpec> = residents.iter().step_by(stride).cloned().collect();
    loop {
        let set = TaskSet::new(tasks.clone()).expect("residents are valid tasks");
        let t0 = Instant::now();
        let built = SystemConfig::build_with_heuristic(set, inputs.topology, POLICY, HEURISTIC);
        let partition_ms = ns_since(t0) as f64 / 1e6;
        match built {
            Ok(system) => {
                return Offline {
                    system,
                    partition_ms,
                    left_out: residents.len() - tasks.len(),
                }
            }
            Err(e) => {
                assert!(tasks.len() > 1, "no resident fits offline: {e}");
                tasks.truncate(tasks.len() - tasks.len().div_ceil(8));
            }
        }
    }
}

/// `analysis.rmwp`: the exact analysis of each used CPU's resident set,
/// alone. Returns nanoseconds per CPU.
pub fn rmwp_per_cpu(system: &SystemConfig) -> f64 {
    let sets: Vec<TaskSet> = system
        .topology()
        .hw_thread_ids()
        .filter_map(|hw| {
            let tasks = system.partition().tasks_on(hw);
            (!tasks.is_empty()).then(|| {
                TaskSet::new(
                    tasks
                        .iter()
                        .map(|&id| system.set().task(id).clone())
                        .collect(),
                )
                .expect("a non-empty CPU holds a valid set")
            })
        })
        .collect();
    let t0 = Instant::now();
    for set in &sets {
        black_box(RmwpAnalysis::analyze(set).expect("a placed CPU is schedulable"));
    }
    ns_since(t0) as f64 / sets.len() as f64
}

/// Host time and event count of a one-shot executor run.
#[derive(Debug, Clone, Copy)]
pub struct ExecRun {
    pub run_ms: f64,
    pub events: u64,
}

impl ExecRun {
    pub fn ns_per_event(&self) -> f64 {
        self.run_ms * 1e6 / self.events as f64
    }
}

/// `core.exec_sim` + `core.engine`: the residents through `SimExecutor`
/// over a warmed arena, no serving layer. Best of five runs.
pub fn exec_sim(system: &SystemConfig, run: &RunConfig) -> ExecRun {
    let exec = SimExecutor::new(system.clone(), run.clone());
    let mut arena = SimArena::new();
    let mut best = ExecRun {
        run_ms: f64::INFINITY,
        events: 0,
    };
    for _ in 0..5 {
        let t0 = Instant::now();
        let out = exec.run_in(&mut arena);
        let run_ms = ns_since(t0) as f64 / 1e6;
        if run_ms < best.run_ms {
            best = ExecRun {
                run_ms,
                events: out.events_processed,
            };
        }
    }
    best
}

/// `core.exec_global`: the same residents through the global driver.
pub fn exec_global(system: &SystemConfig, run: &RunConfig) -> ExecRun {
    let exec = GlobalExecutor::from_config(system, run.clone());
    let t0 = Instant::now();
    let out = exec.run();
    ExecRun {
        run_ms: ns_since(t0) as f64 / 1e6,
        events: out.events_processed,
    }
}

/// `sim.eventq`: a hold model at the run's size — `depth` events queued,
/// then `events` times pop the earliest and push one a seeded interval
/// later. Returns (nanoseconds per operation, operations).
pub fn eventq(events: u64, depth: usize, seed: u64) -> (f64, u64) {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for i in 0..depth as u64 {
        q.push(Time::from_nanos(splitmix64(seed, i) % 50_000_000), i);
    }
    let t0 = Instant::now();
    for i in 0..events {
        let (at, payload) = q.pop().expect("the hold model never drains");
        let later = Span::from_nanos(1 + splitmix64(seed, payload ^ i) % 50_000_000);
        q.push(at + later, payload);
    }
    black_box(q.len());
    (ns_since(t0) as f64 / (2 * events) as f64, 2 * events)
}

/// `sim.readyq`: per job, every part of every resident enqueued at its
/// deployed priority and dequeued highest-first. Returns (nanoseconds per
/// operation, operations).
pub fn readyq(residents: &[TaskSpec], jobs: u64) -> (f64, u64) {
    let parts: Vec<_> = residents
        .iter()
        .map(|spec| {
            let mandatory = mandatory_priority_for_period(spec.period());
            let optional = mandatory.optional_counterpart().expect("RTQ level");
            (mandatory, optional, spec.optional_count())
        })
        .collect();
    let mut q: FifoReadyQueue<u32> = FifoReadyQueue::new();
    let mut ops = 0u64;
    let t0 = Instant::now();
    for _ in 0..jobs {
        for (task, &(mandatory, optional, np)) in parts.iter().enumerate() {
            q.enqueue(mandatory, task as u32);
            for _ in 0..np {
                q.enqueue(optional, task as u32);
            }
            q.enqueue(mandatory, task as u32);
            ops += np as u64 + 2;
        }
        while let Some(work) = q.dequeue_highest() {
            black_box(work);
            ops += 1;
        }
    }
    (ns_since(t0) as f64 / ops as f64, ops)
}

/// `sim.overhead`: the model sampled in protocol order — Δm, np signals,
/// Δs, np terminations — for every job of every resident. Returns
/// nanoseconds per sample.
pub fn overhead_model(inputs: &Inputs, residents: &[TaskSpec]) -> f64 {
    let run = &inputs.run;
    let mut model = OverheadModel::new(run.calibration, inputs.topology, run.load, run.seed);
    let mut samples = 0u64;
    let t0 = Instant::now();
    for _ in 0..run.jobs {
        for spec in residents {
            let np = spec.optional_count();
            black_box(model.begin_mandatory());
            for _ in 0..np {
                black_box(model.signal_one_optional());
            }
            black_box(model.switch_to_optional(np));
            for part in 0..np {
                black_box(model.end_one_part(part % 2 == 1));
            }
            samples += 2 + 2 * np as u64;
        }
    }
    ns_since(t0) as f64 / samples as f64
}

/// Ticks each trading replay runs over.
const TRADING_TICKS: usize = 100_000;

/// What the trading layers cost alone.
#[derive(Debug, Default)]
pub struct Trading {
    /// `trading.market`: `SyntheticFeed::next_tick`.
    pub next_tick_ns: f64,
    /// `trading.fault`: `FeedWatchdog::poll` over a `FaultyFeed`.
    pub poll_ns: f64,
    pub ticks_rejected: u64,
    pub dropouts: u64,
    /// `trading.indicators`: one Bollinger + MACD + RSI update.
    pub indicator_update_ns: f64,
    /// `trading.strategy`: `on_tick` + `signal` of one analysis.
    pub strategy_on_tick_ns: f64,
    /// Share of those `signal` calls that held an opinion, per million.
    pub opinion_ppm: f64,
    /// `trading.execution`: `PaperVenue::on_tick` + `submit`.
    pub venue_submit_ns: f64,
}

/// The trading layers one at a time, over one seeded price path.
pub fn trading(inputs: &Inputs) -> Trading {
    let seed = inputs.feed_seed;
    let per_tick = |t0: Instant| ns_since(t0) as f64 / TRADING_TICKS as f64;
    let mut r = Trading::default();

    let mut feed = SyntheticFeed::eur_usd(seed);
    let t0 = Instant::now();
    let ticks = collect_ticks(&mut feed, TRADING_TICKS);
    r.next_tick_ns = per_tick(t0);

    let mut dog = FeedWatchdog::new(
        FaultyFeed::new(
            SyntheticFeed::eur_usd(seed),
            FeedFaultPlan::new(seed).with_random_faults(FAULT_RATES),
        ),
        WATCHDOG,
    );
    let t0 = Instant::now();
    for _ in 0..TRADING_TICKS {
        black_box(dog.next_tick());
    }
    r.poll_ns = per_tick(t0);
    r.ticks_rejected = dog.report().rejected();
    r.dropouts = dog.report().dropouts;

    let (mut bands, mut macd, mut rsi) =
        (BollingerBands::new(20, 2.0), Macd::standard(), Rsi::new(14));
    let t0 = Instant::now();
    for tick in &ticks {
        let mid = tick.mid();
        bands.push(mid);
        macd.push(mid);
        rsi.push(mid);
    }
    black_box((bands.value(), macd.value(), rsi.value()));
    r.indicator_update_ns = per_tick(t0);

    // One analysis of each kind the workload's traders run.
    let kinds = if inputs.fundamentals { 4 } else { 3 };
    let mut strategies: Vec<_> = (0..kinds)
        .map(|part| strategy_for(part, inputs.fundamentals, seed))
        .collect();
    let mut opinions = 0u64;
    let t0 = Instant::now();
    for tick in &ticks {
        for s in &mut strategies {
            s.on_tick(tick);
            opinions += u64::from(s.signal().is_some());
        }
    }
    r.strategy_on_tick_ns = per_tick(t0) / kinds as f64;
    r.opinion_ppm = crate::round::ppm(opinions, (TRADING_TICKS * kinds) as u64);

    let mut venue = PaperVenue::new(ExecutionConfig::default());
    let t0 = Instant::now();
    for (i, tick) in ticks.iter().enumerate() {
        venue.on_tick(*tick);
        let side = if i % 2 == 0 { Side::Buy } else { Side::Sell };
        black_box(venue.submit(Order {
            at: tick.at,
            side,
            quantity: 1.0,
        }))
        .expect("a venue with a market fills");
    }
    r.venue_submit_ns = per_tick(t0);
    r
}
