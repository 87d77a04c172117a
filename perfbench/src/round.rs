//! The round: what every workload runs, and what is measured around it.
//!
//! 1. `SessionManager::new_in` over one reused `ServeArena`, then one
//!    `submit_or_defer` per tenant, each call timed;
//! 2. `run_with_churn_in`, timed as a whole;
//! 3. for every task of every tenant that ran, one `ImpreciseTrader` with
//!    that task's `np` analyses runs as many cycles as the task completed
//!    jobs, each cycle timed from the `ingest()` call to the return of
//!    `decide()` — tick to order;
//! 4. when the workload is observed, `obs::export::jsonl`, `chrome_trace`
//!    and every tenant's `tenant_trace`, into memory.
//!
//! Closed loop, one thread. A round yields a host-time half ([`Timing`],
//! buffers reused so the harness itself stays off the allocator) and a
//! deterministic half ([`Digest`]) that must be identical in every round
//! of every run with the same seed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rtseed::obs::{export, TraceConfig};
use rtseed::policy::AssignmentPolicy;
use rtseed::serve::{
    GuardConfig, ServeArena, ServeCounters, ServeOutcome, SessionManager, Submission,
};
use rtseed_analysis::PartitionHeuristic;
use rtseed_model::{Span, TaskSpec, TenantState};
use rtseed_sim::{splitmix64, ChurnAction, OverheadKind};
use rtseed_trading::execution::{ExecutionConfig, PaperVenue};
use rtseed_trading::fault::{
    FaultyFeed, FeedFaultPlan, FeedFaultRates, FeedWatchdog, WatchdogConfig,
};
use rtseed_trading::fundamentals::MacroFeed;
use rtseed_trading::imprecise::{ImpreciseTrader, PipelineTracer};
use rtseed_trading::market::{SyntheticFeed, TickSource};
use rtseed_trading::strategy::{
    BollingerReversion, FundamentalBias, MacdMomentum, RsiContrarian, Signal, SignalAggregator,
    Strategy,
};

use crate::alloc::{self, Snapshot};
use crate::spans::Recorder;
use crate::workloads::{Feed, Inputs};

/// The placement heuristic and optional-part policy every workload uses
/// (the serving examples' defaults).
pub const HEURISTIC: PartitionHeuristic = PartitionHeuristic::WorstFitDecreasing;
pub const POLICY: AssignmentPolicy = AssignmentPolicy::OneByOne;

/// Indices into [`Timing::phase_ns`] and [`Timing::phase_alloc`].
pub const SUBMIT: usize = 0;
pub const RUN: usize = 1;
pub const TRADING: usize = 2;
pub const EXPORT: usize = 3;

/// Per-poll fault probabilities of [`Feed::Faulty`]: one poll in fifty is
/// faulted, and no fault outlasts the watchdog's retry budget on its own.
pub const FAULT_RATES: FeedFaultRates = FeedFaultRates {
    stall: 0.005,
    stall_polls: 2,
    gap: 0.005,
    gap_ticks: 2,
    out_of_order: 0.005,
    nan: 0.005,
};

/// The watchdog in front of every faulty feed. Eight polls a cycle outlast
/// any run of faults [`FAULT_RATES`] can plausibly chain (four stalls in a
/// row, ~6e-10 a poll), so every cycle gets its tick and none fails.
pub const WATCHDOG: WatchdogConfig = WatchdogConfig {
    max_retries: 7,
    backoff_start: Span::from_millis(10),
    backoff_cap: Span::from_secs(1),
    trip_after: 3,
    jitter: 0.0,
    jitter_seed: 0,
};

/// Host-time measurements of one round.
#[derive(Debug, Default)]
pub struct Timing {
    /// One entry per phase-1 submission.
    pub submit_ns: Vec<u64>,
    /// One entry per pipeline cycle, `ingest()` call to `decide()` return.
    pub cycle_ns: Vec<u64>,
    /// Time inside each phase (harness bookkeeping between calls excluded).
    pub phase_ns: [u64; 4],
    /// Heap allocations inside each phase.
    pub phase_alloc: [Snapshot; 4],
    /// JSONL text produced by phase 4 (scheduler and pipeline traces).
    pub jsonl_bytes: u64,
}

impl Timing {
    /// The whole round: the four phases together.
    pub fn round_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }
}

/// The deterministic half of a round: simulated results and counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    /// Phase-1 verdicts.
    pub submitted: u64,
    pub admitted_at_submit: u64,
    pub deferred_at_submit: u64,
    /// FNV-1a over the phase-1 verdict sequence (admitted or not).
    pub submit_fp: u64,
    /// Serving-layer counters at the end of the run.
    pub counters: ServeCounters,
    /// Distinct tenant names submitted (phase 1 and churn arrivals) and
    /// how many of them were admitted at some point.
    pub tenants_submitted: u64,
    pub tenants_admitted: u64,
    /// FNV-1a over every tenant-table entry (state, jobs, misses, tasks).
    pub tenants_fp: u64,
    pub events: u64,
    pub jobs: u64,
    pub misses: u64,
    pub achieved_ns: u64,
    pub requested_ns: u64,
    /// Mean Δm, Δb, Δs, Δe (simulated).
    pub delta_mean_ns: [u64; 4],
    /// Histogram bucket bounds (simulated).
    pub response_p99_ns: u64,
    pub release_jitter_p99_ns: u64,
    pub deferred_latency_p50_ns: u64,
    /// Phase 3.
    pub cycles: u64,
    pub decisions: u64,
    pub orders: u64,
    pub fills: u64,
    /// Cycles whose feed produced no tick, hence no decision.
    pub no_tick: u64,
    /// Analyses run: `np` for every cycle that had a tick.
    pub analyses: u64,
    /// FNV-1a over every decision in cycle order.
    pub decisions_fp: u64,
    /// Phase 4 (zero unless observed).
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub pipeline_events: u64,
    pub export_bytes: u64,
}

impl Digest {
    /// Deadline misses per million jobs.
    pub fn miss_ppm(&self) -> f64 {
        ppm(self.misses, self.jobs)
    }

    /// Achieved over requested optional execution, per million.
    pub fn qos_ppm(&self) -> f64 {
        ppm(self.achieved_ns, self.requested_ns)
    }

    /// Tenants admitted (at once or after deferral) per million submitted.
    pub fn admitted_ppm(&self) -> f64 {
        ppm(self.tenants_admitted, self.tenants_submitted)
    }

    /// Operations attempted: tenants, jobs and cycles.
    pub fn attempted(&self) -> u64 {
        self.tenants_submitted + self.jobs + self.cycles
    }

    /// Operations that failed: tenants never admitted and cycles without
    /// a decision. A job that missed its simulated deadline is a result
    /// the scheduler computed, reported as `deadline_met_ppm`, not a
    /// failed operation of the run.
    pub fn failed(&self) -> u64 {
        (self.tenants_submitted - self.tenants_admitted) + self.no_tick
    }
}

/// `part / whole` (0 when `whole` is 0).
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `part` per million of `whole` (0 when `whole` is 0).
pub fn ppm(part: u64, whole: u64) -> f64 {
    1e6 * ratio(part, whole)
}

/// FNV-1a step over one 64-bit word.
pub fn fnv1a(fp: &mut u64, v: u64) {
    *fp ^= v;
    *fp = fp.wrapping_mul(0x100_0000_01b3);
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One trader to run in phase 3.
#[derive(Debug)]
struct Desk {
    np: usize,
    cycles: u64,
    seed: u64,
}

/// Runs rounds of one workload over one reused arena.
#[derive(Debug)]
pub struct Runner<'a> {
    pub inputs: &'a Inputs,
    arena: ServeArena,
    pub timing: Timing,
    /// The task set each tenant name submitted (phase 1 or churn).
    specs: HashMap<&'a str, &'a [TaskSpec]>,
    desks: Vec<Desk>,
    tracers: Vec<Arc<PipelineTracer>>,
}

impl<'a> Runner<'a> {
    /// A cold runner: empty arena, buffers sized to the workload.
    pub fn new(inputs: &'a Inputs) -> Runner<'a> {
        let arrivals = inputs
            .churn
            .events()
            .iter()
            .filter_map(|e| match &e.action {
                ChurnAction::Arrive { name, tasks } => Some((name.as_str(), tasks.as_slice())),
                ChurnAction::Depart { .. } => None,
            });
        let specs: HashMap<&str, &[TaskSpec]> = inputs
            .initial
            .iter()
            .map(|t| (t.name.as_str(), t.tasks.as_slice()))
            .chain(arrivals)
            .collect();
        let tasks: usize = specs.values().map(|t| t.len()).sum();
        Runner {
            inputs,
            specs,
            arena: ServeArena::new(),
            timing: Timing {
                submit_ns: Vec::with_capacity(inputs.initial.len()),
                cycle_ns: Vec::with_capacity(tasks * inputs.run.jobs as usize),
                ..Timing::default()
            },
            desks: Vec::with_capacity(tasks),
            tracers: Vec::with_capacity(tasks),
        }
    }

    /// An empty session over the reused arena, guard armed if the
    /// workload asks for it.
    fn session(&mut self) -> SessionManager {
        let inputs = self.inputs;
        let mgr = SessionManager::new_in(
            inputs.topology,
            HEURISTIC,
            POLICY,
            inputs.run.clone(),
            &mut self.arena,
        );
        if inputs.guard {
            mgr.with_guard(GuardConfig::armed())
        } else {
            mgr
        }
    }

    /// The tasks still resident when a round's run ends, in admission
    /// order: the population the one-shot executors and the offline
    /// analyses are replayed on.
    pub fn final_residents(&mut self) -> Vec<TaskSpec> {
        let inputs = self.inputs;
        let mut mgr = self.session();
        for tenant in &inputs.initial {
            let _ = mgr.submit_or_defer(tenant.name.as_str(), &tenant.tasks);
        }
        let out = mgr.run_with_churn_in(&inputs.churn, &mut self.arena);
        out.tenants
            .iter()
            .filter(|t| t.state == TenantState::Admitted)
            .flat_map(|t| self.specs[t.name.as_str()].iter().cloned())
            .collect()
    }

    /// Runs one round, recording spans into `rec` when it is enabled.
    pub fn round(&mut self, rec: &mut Recorder) -> Digest {
        let inputs = self.inputs;
        self.timing.submit_ns.clear();
        self.timing.cycle_ns.clear();
        rec.enter("round");

        // ---- phase 1: construction and one timed submission per tenant
        rec.enter("submit_phase");
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let mut mgr = self.session();
        let mut submit_fp = FNV_OFFSET;
        let (mut admitted_at_submit, mut deferred_at_submit) = (0, 0);
        for tenant in &inputs.initial {
            rec.enter("submit");
            let s0 = Instant::now();
            let verdict = mgr.submit_or_defer(tenant.name.as_str(), &tenant.tasks);
            self.timing.submit_ns.push(s0.elapsed().as_nanos() as u64);
            rec.exit();
            let admitted = u64::from(matches!(verdict, Submission::Admitted(_)));
            admitted_at_submit += admitted;
            deferred_at_submit += u64::from(verdict == Submission::Deferred);
            fnv1a(&mut submit_fp, admitted);
        }
        self.timing.phase_ns[SUBMIT] = t0.elapsed().as_nanos() as u64;
        self.timing.phase_alloc[SUBMIT] = alloc::snapshot().since(a0);
        rec.exit();

        // ---- phase 2: the serving run, churn replayed inside it
        rec.enter("serve_run");
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let out = mgr.run_with_churn_in(&inputs.churn, &mut self.arena);
        self.timing.phase_ns[RUN] = t0.elapsed().as_nanos() as u64;
        self.timing.phase_alloc[RUN] = alloc::snapshot().since(a0);
        rec.exit();

        let mut digest = self.digest_of_run(&out);
        digest.submitted = inputs.initial.len() as u64;
        digest.admitted_at_submit = admitted_at_submit;
        digest.deferred_at_submit = deferred_at_submit;
        digest.submit_fp = submit_fp;

        // ---- phase 3: tick to order, one trader per task that ran
        self.plan_desks(&out);
        self.trading_phase(rec, &mut digest);

        // ---- phase 4: export, when the workload is observed
        if inputs.observed {
            self.export_phase(rec, &out, &mut digest);
        } else {
            self.timing.phase_ns[EXPORT] = 0;
            self.timing.phase_alloc[EXPORT] = Snapshot::default();
            self.timing.jsonl_bytes = 0;
        }
        rec.exit();
        digest
    }

    fn digest_of_run(&self, out: &ServeOutcome) -> Digest {
        let o = &out.outcome;
        let mut tenants_fp = FNV_OFFSET;
        let mut names: Vec<(&str, bool)> = Vec::with_capacity(out.tenants.len());
        for t in &out.tenants {
            for v in [
                u64::from(t.tenant.0),
                t.state as u64,
                t.qos.jobs(),
                t.qos.deadline_misses(),
                t.tasks.len() as u64,
            ] {
                fnv1a(&mut tenants_fp, v);
            }
            names.push((t.name.as_str(), t.state != TenantState::Rejected));
        }
        // A name can own several table entries (deferred, then admitted):
        // it counts once, admitted if any entry was.
        names.sort_unstable();
        let mut tenants_submitted = 0;
        let mut tenants_admitted = 0;
        for group in names.chunk_by(|a, b| a.0 == b.0) {
            tenants_submitted += 1;
            tenants_admitted += u64::from(group.iter().any(|(_, admitted)| *admitted));
        }
        Digest {
            counters: out.counters,
            tenants_submitted,
            tenants_admitted,
            tenants_fp,
            events: o.events_processed,
            jobs: o.qos.jobs(),
            misses: o.qos.deadline_misses(),
            achieved_ns: o.qos.achieved_total().as_nanos(),
            requested_ns: o.qos.requested_total().as_nanos(),
            delta_mean_ns: OverheadKind::ALL.map(|k| o.overheads.mean(k).as_nanos()),
            response_p99_ns: o.metrics.response_time().quantile_bound(0.99),
            release_jitter_p99_ns: o.metrics.release_jitter().quantile_bound(0.99),
            deferred_latency_p50_ns: out.deferred_latency.quantile_bound(0.5),
            decisions_fp: FNV_OFFSET,
            // Phases 1, 3 and 4 fill in the rest.
            ..Digest::default()
        }
    }

    /// One desk per task of every tenant that ran; a tenant's completed
    /// jobs are dealt round-robin over its tasks.
    fn plan_desks(&mut self, out: &ServeOutcome) {
        self.desks.clear();
        for (i, t) in out.tenants.iter().enumerate() {
            let jobs = t.qos.jobs();
            if jobs == 0 {
                continue;
            }
            let specs = self.specs[t.name.as_str()];
            let n = specs.len() as u64;
            for (k, spec) in specs.iter().enumerate() {
                let k = k as u64;
                self.desks.push(Desk {
                    np: spec.optional_count().max(1),
                    cycles: jobs / n + u64::from(k < jobs % n),
                    seed: splitmix64(self.inputs.feed_seed, i as u64 * 64 + k),
                });
            }
        }
    }

    fn trading_phase(&mut self, rec: &mut Recorder, digest: &mut Digest) {
        let inputs = self.inputs;
        self.tracers.clear();
        let mut phase_ns = 0;
        let mut phase_alloc = Snapshot::default();
        rec.enter("trading_phase");
        for desk in &self.desks {
            let a0 = alloc::snapshot();
            let t0 = Instant::now();
            let trader = build_trader(inputs, desk);
            if inputs.observed {
                // Sized to the desk: ingest + np analyses + decide a cycle.
                let events = desk.cycles as usize * (desk.np + 2);
                let tracer = Arc::new(PipelineTracer::new(TraceConfig::bounded(events.max(1))));
                trader.attach_tracer(Arc::clone(&tracer));
                self.tracers.push(tracer);
            }
            let mut orders = 0;
            for _ in 0..desk.cycles {
                rec.enter("cycle");
                let c0 = Instant::now();
                rec.enter("ingest");
                let fresh = trader.ingest();
                rec.exit();
                if fresh {
                    rec.enter("analyze");
                    for part in 0..desk.np {
                        trader.analyze(part, &|| false);
                    }
                    rec.exit();
                    rec.enter("decide");
                    let signal = trader.decide();
                    rec.exit();
                    self.timing.cycle_ns.push(c0.elapsed().as_nanos() as u64);
                    orders += u64::from(signal != Signal::Wait);
                    digest.analyses += desk.np as u64;
                    fnv1a(&mut digest.decisions_fp, signal as u64);
                } else {
                    self.timing.cycle_ns.push(c0.elapsed().as_nanos() as u64);
                    digest.no_tick += 1;
                }
                rec.exit();
            }
            phase_ns += t0.elapsed().as_nanos() as u64;
            let allocated = alloc::snapshot().since(a0);
            phase_alloc.allocs += allocated.allocs;
            phase_alloc.bytes += allocated.bytes;
            // Read back what the trader and its venue recorded; checked
            // against the counts above by `check`.
            digest.cycles += desk.cycles;
            digest.decisions += trader.decisions().len() as u64;
            digest.orders += orders;
            digest.fills += trader.venue_snapshot().fills().len() as u64;
        }
        rec.exit();
        self.timing.phase_ns[TRADING] = phase_ns;
        self.timing.phase_alloc[TRADING] = phase_alloc;
    }

    fn export_phase(&mut self, rec: &mut Recorder, out: &ServeOutcome, digest: &mut Digest) {
        rec.enter("export");
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let trace = &out.outcome.trace;
        rec.enter("jsonl");
        let mut bytes = export::jsonl(trace).len();
        // Pipeline events carry host timestamps, so their JSONL length
        // differs from round to round and stays out of the digest.
        let mut pipeline_bytes = 0;
        for tracer in &self.tracers {
            let pipeline = tracer.snapshot();
            digest.pipeline_events += pipeline.len() as u64;
            pipeline_bytes += export::jsonl(&pipeline).len();
        }
        self.timing.jsonl_bytes = (bytes + pipeline_bytes) as u64;
        rec.exit();
        rec.enter("chrome");
        bytes += export::chrome_trace(trace, &out.outcome.metrics).len();
        rec.exit();
        rec.enter("tenant_trace");
        let mut scoped = 0;
        for t in &out.tenants {
            scoped += out.tenant_trace(t.tenant).len();
        }
        rec.exit();
        self.timing.phase_ns[EXPORT] = t0.elapsed().as_nanos() as u64;
        self.timing.phase_alloc[EXPORT] = alloc::snapshot().since(a0);
        rec.exit();
        digest.trace_events = trace.len() as u64;
        digest.trace_dropped = trace.dropped();
        digest.export_bytes = bytes as u64;
        std::hint::black_box(scoped);
    }
}

/// The analysis run by optional part `part` of a trader.
pub fn strategy_for(part: usize, fundamentals: bool, seed: u64) -> Box<dyn Strategy> {
    let kinds = if fundamentals { 4 } else { 3 };
    match part % kinds {
        0 => Box::new(BollingerReversion::new(10 + (part / kinds) % 30, 2.0)),
        1 => Box::new(MacdMomentum::new(0.00002)),
        2 => Box::new(RsiContrarian::standard()),
        _ => {
            // A bias needs releases to hold an opinion at all.
            let mut bias = FundamentalBias::new(0.1);
            let mut releases = MacroFeed::new(seed, Span::from_secs(3_600));
            for _ in 0..8 {
                bias.model_mut().ingest(&releases.next_release());
            }
            Box::new(bias)
        }
    }
}

/// The tick source of a trader seeded with `seed`.
pub fn feed_for(feed: Feed, seed: u64) -> Box<dyn TickSource + Send> {
    match feed {
        Feed::Clean => Box::new(SyntheticFeed::eur_usd(seed)),
        Feed::Faulty => Box::new(FeedWatchdog::new(
            FaultyFeed::new(
                SyntheticFeed::eur_usd(seed),
                FeedFaultPlan::new(seed).with_random_faults(FAULT_RATES),
            ),
            WATCHDOG,
        )),
    }
}

fn build_trader(inputs: &Inputs, desk: &Desk) -> ImpreciseTrader {
    let strategies = (0..desk.np)
        .map(|part| strategy_for(part, inputs.fundamentals, desk.seed))
        .collect();
    ImpreciseTrader::new(
        feed_for(inputs.feed, desk.seed),
        strategies,
        SignalAggregator::new(1),
        PaperVenue::new(ExecutionConfig::default()),
        1.0,
    )
}
