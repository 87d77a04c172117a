//! The five workloads and their seeded input generation.
//!
//! Everything here runs before timing: the program under test receives
//! only the generated `TaskSpec`s, `ChurnPlan`, `RunConfig` and feed
//! seeds. A workload's shape — topology, tenant population, periods, np,
//! and the script of who arrives and leaves when — is fixed; the seed moves
//! the overhead-jitter stream and every price path, so two seeds do the
//! same work on different data.

use rtseed::obs::TraceConfig;
use rtseed::RunConfig;
use rtseed_analysis::taskgen::{self, TaskGenConfig};
use rtseed_model::{Span, TaskSpec, Time, Topology};
use rtseed_sim::{splitmix64, ChurnPlan};
use rtseed_trading::imprecise::desk_task_set;

/// One tenant submission: a name and the task set it asks for.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub tasks: Vec<TaskSpec>,
}

/// What the traders of a workload read their ticks from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// A bare `SyntheticFeed`.
    Clean,
    /// `FeedWatchdog` over `FaultyFeed` over a `SyntheticFeed`: gaps,
    /// out-of-order ticks, NaN ticks and stalls, absorbed by retries.
    Faulty,
}

/// The generated inputs of one workload for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub topology: Topology,
    pub run: RunConfig,
    /// Arm `GuardConfig::armed()` (ladder + deferred queue).
    pub guard: bool,
    /// Tenants submitted one by one before the run (phase 1).
    pub initial: Vec<Tenant>,
    /// Arrivals and departures replayed during the run (phase 2).
    pub churn: ChurnPlan,
    pub feed: Feed,
    /// Every fourth analysis of a trader is a `FundamentalBias`.
    pub fundamentals: bool,
    /// Attach a `PipelineTracer` to every trader and export the traces
    /// (phase 4); `run.trace` is enabled alongside.
    pub observed: bool,
    /// Base seed of the per-trader price paths and fault plans.
    pub feed_seed: u64,
    /// The `taskgen` calls that produced the task sets, for the
    /// `analysis.taskgen` replay (empty when the sets are hand-shaped).
    pub taskgen: Vec<(TaskGenConfig, u64)>,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it exists, as `BENCHMARK.json` records it.
    pub why: &'static str,
    pub build: fn(u64) -> Inputs,
}

/// The workloads `BENCHMARK.json` lists, in its order.
///
/// # Panics
///
/// Panics when it lists a workload this package does not build.
pub fn all() -> Vec<Workload> {
    let listed = &crate::metrics::benchmark().workloads;
    listed
        .iter()
        .map(|(name, why)| Workload {
            name,
            why,
            build: match name.as_str() {
                "desk_day" => desk_day,
                "desk_day_obs" => desk_day_obs,
                "tenant_storm" => tenant_storm,
                "manycore_np228" => manycore_np228,
                "feed_faults" => feed_faults,
                other => panic!("BENCHMARK.json lists workload {other}, which nothing builds"),
            },
        })
        .collect()
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Who churns and when is part of a workload's shape, the same under every
/// `--seed`: which instant a desk leaves at decides whether its jobs in
/// flight are aborted (0.1-4 % deadline misses in `desk_day` from that
/// alone), and near a full box the storm's admission cost follows the
/// utilization vector (a reseeded storm moved `admits_per_s` by 10 % and
/// `allocs_per_event` by 25 %). Left to the seed, either would need bounds
/// wide enough to hide a real regression of the simulated metrics.
const SCRIPT_SEED: u64 = 0x5EED_2014;

/// Independent sub-seed `slot` of `seed`.
fn sub(seed: u64, slot: u64) -> u64 {
    splitmix64(seed, slot)
}

/// A seeded instant in `[from, from + width)`.
fn instant(seed: u64, slot: u64, from: Span, width: Span) -> Time {
    Time::from_nanos(from.as_nanos() + sub(seed, slot) % width.as_nanos())
}

/// A seeded permutation of `0..n` (Fisher–Yates over the sub-seed stream).
fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (sub(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    order
}

fn run_config(seed: u64, jobs: u64) -> RunConfig {
    RunConfig::builder()
        .jobs(jobs)
        .seed(sub(seed, 1))
        .build()
        .expect("defaults are valid")
}

/// `desks` trading desks named `desk00..`, one pipeline task per symbol.
fn desks(desks: usize, symbols: &[&str], analyses: usize) -> Vec<Tenant> {
    (0..desks)
        .map(|i| {
            let name = format!("desk{i:02}");
            let tasks = desk_task_set(&name, symbols, analyses, Span::from_millis(50))
                .expect("desk task sets are valid");
            Tenant { name, tasks }
        })
        .collect()
}

fn desk_day(seed: u64) -> Inputs {
    let mut all = desks(32, &["EURUSD", "USDJPY"], 3);
    let late = all.split_off(24);
    // A quarter of the day's desks leave between 2.5 s and 3.5 s; the
    // last quarter arrives after them, between 4 s and 5 s.
    let mut churn = ChurnPlan::new();
    let leavers = shuffled(sub(SCRIPT_SEED, 2), all.len());
    for (k, &i) in leavers.iter().take(8).enumerate() {
        let at = instant(
            SCRIPT_SEED,
            100 + k as u64,
            Span::from_millis(2_500),
            Span::from_secs(1),
        );
        churn = churn.depart(at, all[i].name.clone());
    }
    for (k, t) in late.into_iter().enumerate() {
        let at = instant(
            SCRIPT_SEED,
            200 + k as u64,
            Span::from_secs(4),
            Span::from_secs(1),
        );
        churn = churn.arrive(at, t.name, t.tasks);
    }
    Inputs {
        topology: Topology::quad_core_smt2(),
        run: run_config(seed, 200),
        guard: false,
        initial: all,
        churn,
        feed: Feed::Clean,
        fundamentals: false,
        observed: false,
        feed_seed: sub(seed, 3),
        taskgen: Vec::new(),
    }
}

fn desk_day_obs(seed: u64) -> Inputs {
    let mut inputs = desk_day(seed);
    inputs.run.trace = TraceConfig::enabled();
    inputs.observed = true;
    inputs
}

/// Tenants of the storm and how many of them are resident before the run.
const STORM_TENANTS: usize = 2000;
const STORM_INITIAL: usize = 1500;
/// Four period classes, so Rate Monotonic priorities interleave on every
/// CPU instead of arriving pre-sorted.
const STORM_PERIODS_MS: [u64; 4] = [25, 50, 100, 200];
/// Share of the box the residents and the late cohort ask for. At 82 % the
/// box is a few percent short of where the exact RMWP test starts turning
/// tenants away, so the late cohort's overshoot defers a handful of
/// arrivals and strands none of them past the retry deadline.
const STORM_RESIDENT_FILL: f64 = 0.82;
const STORM_LATE_FILL: f64 = 0.10;

fn tenant_storm(seed: u64) -> Inputs {
    let topology = Topology::xeon_phi_3120a();
    let classes = STORM_PERIODS_MS.len();
    let hw = f64::from(topology.hw_threads());
    // One `taskgen` call per period class and cohort: the residents ask
    // for most of the box, the late cohort for lighter slices of it.
    let cohort = |tenants: usize, fill: f64, slot: u64| -> Vec<(TaskGenConfig, u64)> {
        STORM_PERIODS_MS
            .iter()
            .enumerate()
            .map(|(c, &ms)| {
                let cfg = TaskGenConfig {
                    tasks: tenants / classes,
                    total_utilization: fill * hw / classes as f64,
                    period_min: Span::from_millis(ms),
                    period_max: Span::from_millis(ms),
                    mandatory_fraction: (0.3, 0.7),
                    optional_parts: (1, 3),
                    optional_scale: (0.05, 0.2),
                };
                (cfg, sub(SCRIPT_SEED, slot + c as u64))
            })
            .collect()
    };
    let late_count = STORM_TENANTS - STORM_INITIAL;
    let resident_gen = cohort(STORM_INITIAL, STORM_RESIDENT_FILL, 10);
    let late_gen = cohort(late_count, STORM_LATE_FILL, 20);
    // Tenant i takes task i / 4 of class i % 4, so the classes interleave.
    let tenants_of = |gen: &[(TaskGenConfig, u64)], first: usize, n: usize| -> Vec<Tenant> {
        let sets: Vec<_> = gen
            .iter()
            .map(|(cfg, s)| taskgen::generate(cfg, *s))
            .collect();
        (0..n)
            .map(|i| {
                let (_, spec) = sets[i % classes]
                    .iter()
                    .nth(i / classes)
                    .expect("one generated task per tenant");
                Tenant {
                    name: format!("s{}", first + i),
                    tasks: vec![spec.clone()],
                }
            })
            .collect()
    };
    let mut initial = tenants_of(&resident_gen, 0, STORM_INITIAL);
    // The book is loaded largest tenant first (the order the offline
    // partitioner packs in), so the box fills without stranding a heavy
    // tenant behind many light ones.
    initial.sort_by(|a, b| {
        let u = |t: &Tenant| t.tasks[0].utilization();
        u(b).partial_cmp(&u(a)).expect("finite utilization")
    });
    let late = tenants_of(&late_gen, STORM_INITIAL, late_count);
    // Arrivals lead departures by 40 ms over a 300 ms window in the
    // middle of the run: the box overshoots first, parking a few arrivals
    // on the deferred queue, and drains after, letting them in.
    let mut churn = ChurnPlan::new();
    let window = Span::from_millis(300);
    for (k, t) in late.into_iter().enumerate() {
        let at = instant(
            SCRIPT_SEED,
            1_000 + k as u64,
            Span::from_millis(100),
            window,
        );
        churn = churn.arrive(at, t.name, t.tasks);
    }
    let leavers = shuffled(sub(SCRIPT_SEED, 4), STORM_INITIAL);
    for (k, &i) in leavers.iter().take(late_count).enumerate() {
        let at = instant(
            SCRIPT_SEED,
            5_000 + k as u64,
            Span::from_millis(140),
            window,
        );
        churn = churn.depart(at, initial[i].name.clone());
    }
    let mut taskgen = resident_gen;
    taskgen.extend(late_gen);
    Inputs {
        topology,
        run: run_config(seed, 3),
        guard: true,
        initial,
        churn,
        feed: Feed::Clean,
        fundamentals: false,
        observed: false,
        feed_seed: sub(seed, 3),
        taskgen,
    }
}

fn manycore_np228(seed: u64) -> Inputs {
    // The paper's evaluation task (T = 1 s, m = w = 250 ms) with one
    // optional part per hardware thread, each asking for a whole period so
    // every one of them is terminated at the optional deadline.
    let initial = (0..8)
        .map(|i| {
            let name = format!("phi{i}");
            let task = TaskSpec::builder(format!("{name}/trader"))
                .period(Span::from_secs(1))
                .mandatory(Span::from_millis(250))
                .windup(Span::from_millis(250))
                .optional_parts(228, Span::from_secs(1))
                .build()
                .expect("paper task is valid");
            Tenant {
                name,
                tasks: vec![task],
            }
        })
        .collect();
    Inputs {
        topology: Topology::xeon_phi_3120a(),
        run: run_config(seed, 150),
        guard: false,
        initial,
        churn: ChurnPlan::new(),
        feed: Feed::Clean,
        fundamentals: false,
        observed: false,
        feed_seed: sub(seed, 3),
        taskgen: Vec::new(),
    }
}

fn feed_faults(seed: u64) -> Inputs {
    Inputs {
        topology: Topology::quad_core_smt2(),
        run: run_config(seed, 10_000),
        guard: false,
        initial: desks(4, &["EURUSD"], 7),
        churn: ChurnPlan::new(),
        feed: Feed::Faulty,
        fundamentals: true,
        observed: false,
        feed_seed: sub(seed, 3),
        taskgen: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for w in all() {
            let (a, b, c) = ((w.build)(7), (w.build)(7), (w.build)(8));
            assert_eq!((a.run.seed, a.feed_seed), (b.run.seed, b.feed_seed));
            assert_ne!(a.run.seed, c.run.seed);
            assert_ne!(a.feed_seed, c.feed_seed);
            // The shape, script included, is the same under every seed.
            for other in [&b, &c] {
                assert_eq!(a.churn, other.churn, "{}", w.name);
                assert_eq!(a.initial.len(), other.initial.len());
                for (x, y) in a.initial.iter().zip(&other.initial) {
                    assert_eq!((&x.name, &x.tasks), (&y.name, &y.tasks));
                }
            }
        }
    }

    #[test]
    fn shuffles_are_permutations() {
        let mut p = shuffled(3, 50);
        assert_ne!(p, (0..50).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
