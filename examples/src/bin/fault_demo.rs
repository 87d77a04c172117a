//! Deterministic fault injection end to end: a seeded overload episode on
//! the simulated backend with and without the overload supervisor, then a
//! hostile market feed tamed by the watchdog + kill-switch stack.
//!
//!     cargo run -p rtseed-examples --bin fault_demo
//!
//! Everything below is seeded — run it twice and the output is identical.

use rtseed::prelude::*;
use rtseed_sim::{FaultTarget, JobWindow, WcetFault};
use rtseed_trading::fault::{FeedFault, FeedFaultPlan};
use rtseed_trading::market::SyntheticFeed;
use rtseed_trading::{FaultyFeed, FeedError, FeedWatchdog, WatchdogConfig};

fn simulate(supervisor: bool) -> Result<Outcome, Box<dyn std::error::Error>> {
    // The paper's task (T = 1 s, m = w = 250 ms) with a seeded overload:
    // jobs 2–4 run their mandatory part at 5× the declared WCET.
    let task = TaskSpec::builder("τ1")
        .period(Span::from_secs(1))
        .mandatory(Span::from_millis(250))
        .windup(Span::from_millis(250))
        .optional_parts(4, Span::from_secs(1))
        .build()?;
    let config = SystemConfig::build(
        TaskSet::new(vec![task])?,
        Topology::xeon_phi_3120a(),
        AssignmentPolicy::OneByOne,
    )?;
    let run = RunConfig::builder()
        .jobs(10)
        .fault_plan(FaultPlan::new(2026).with_wcet_fault(WcetFault {
            task: None,
            jobs: JobWindow { from: 2, until: 5 },
            target: FaultTarget::Mandatory,
            factor: 5.0,
        }))
        .supervisor(supervisor)
        .build()?;
    Ok(SimExecutor::new(config, run).run())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== 1. Seeded overload, no supervisor ===\n");
    let unsupervised = simulate(false)?;
    println!("QoS    : {}", unsupervised.qos);
    println!("Faults : {}\n", unsupervised.faults);

    println!("=== 2. Same fault seed, overload supervisor armed ===\n");
    let supervised = simulate(true)?;
    println!("QoS    : {}", supervised.qos);
    println!("Faults : {}\n", supervised.faults);
    println!(
        "Supervisor turned {} deadline misses into {} by shedding optional \
         parts on {} jobs (degraded-mode dwell {}).\n",
        unsupervised.qos.deadline_misses(),
        supervised.qos.deadline_misses(),
        supervised.faults.jobs_degraded,
        supervised.faults.degraded_dwell,
    );

    println!("=== 3. Hostile market feed behind the watchdog ===\n");
    // A synthetic EUR/USD feed with scripted corruption: a NaN tick, an
    // out-of-order pair, a gap, and a stall long enough to trip the
    // kill switch after bounded retries.
    let plan = FeedFaultPlan::new(7)
        .with_fault(10, FeedFault::NanTick)
        .with_fault(25, FeedFault::OutOfOrder)
        .with_fault(40, FeedFault::Gap { ticks: 3 })
        .with_fault(60, FeedFault::Stall { polls: 500 });
    let faulty = FaultyFeed::new(Box::new(SyntheticFeed::eur_usd(7)), plan);
    let mut dog = FeedWatchdog::new(faulty, WatchdogConfig::default());
    let kill = dog.kill_switch();

    let mut delivered = 0u32;
    let mut dropouts = 0u32;
    for _ in 0..200 {
        match dog.poll() {
            Ok(_) => delivered += 1,
            Err(FeedError::Dropout { .. }) => dropouts += 1,
            Err(FeedError::KillSwitch) => break,
        }
    }
    println!("Delivered ticks : {delivered}");
    println!("Dropout cycles  : {dropouts}");
    println!("Kill switch     : {}", if kill.is_tripped() { "TRIPPED" } else { "clear" });
    println!("Feed report     : {}", dog.report());
    println!("\nRe-run this binary: every number above is identical (seeded).");
    Ok(())
}
