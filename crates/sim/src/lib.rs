//! # rtseed-sim
//!
//! Discrete-event many-core simulation substrate for RT-Seed.
//!
//! The paper evaluates RT-Seed on a 228-hardware-thread Xeon Phi that this
//! reproduction environment does not have, so this crate provides the
//! machine model the middleware runs on instead:
//!
//! * a deterministic **event queue** ([`eventq`]) with stable FIFO ordering
//!   of simultaneous events — also the timer subsystem: a one-shot
//!   optional-deadline timer (the `timer_settime` analogue of paper
//!   Fig. 7) is an event stamped with its job's sequence number, and a
//!   stale one is dropped by the engine,
//! * per-hardware-thread **SCHED_FIFO ready queues** ([`readyq`]) mirroring
//!   Linux's 99 priority levels with FIFO order within a level (paper
//!   Fig. 5's "double circular linked list" queues),
//! * the three **background loads** of §V-B (`NoLoad`, `CpuLoad`,
//!   `CpuMemoryLoad`) ([`load`]),
//! * a calibrated **overhead/contention model** ([`overhead`]) producing the
//!   four overheads of Fig. 9 (Δm, Δb, Δs, Δe) from mechanistic inputs
//!   (number of parallel optional parts, distinct cores touched, SMT
//!   occupancy, cache pollution), and
//! * a deterministic **fault plan** ([`fault`]): seeded, replayable WCET
//!   overruns, optional-deadline timer faults and CPU stall windows that
//!   the executors inject through the event queue, and
//! * a deterministic **tenant-churn plan** ([`churn`]): scripted tenant
//!   arrivals and departures the serving layer replays against its online
//!   admission test, and
//! * composed **chaos scenarios** ([`chaos`]): a churn storm and a fault
//!   schedule derived from one seed, so noisy-neighbour experiments are a
//!   single replayable value.
//!
//! The middleware crate (`rtseed`) drives this machine with the *same*
//! scheduler state machine it uses on real Linux; only the clock and the
//! cost of each primitive differ.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod chaos;
pub mod churn;
pub mod eventq;
pub mod fault;
pub mod load;
pub mod overhead;
pub mod readyq;

pub use chaos::ChaosPlan;
pub use churn::{splitmix64, ChurnAction, ChurnEvent, ChurnPlan};
pub use eventq::EventQueue;
pub use fault::{
    CpuStall, FaultPlan, FaultTarget, JobWindow, RandomOverruns, TimerFault, TimerFaultSpec,
    WcetFault,
};
pub use load::BackgroundLoad;
pub use overhead::{Calibration, OverheadKind, OverheadModel, OverheadSample};
pub use readyq::FifoReadyQueue;
