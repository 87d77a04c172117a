//! # RT-Seed: real-time middleware for semi-fixed-priority scheduling
//!
//! A user-space middleware implementing **P-RMWP** (Partitioned Rate
//! Monotonic with Wind-up Part) under the **parallel-extended imprecise
//! computation model** — a faithful reproduction of
//! *"RT-Seed: Real-Time Middleware for Semi-Fixed-Priority Scheduling"*
//! (Chishiro, MIDDLEWARE 2014).
//!
//! Each periodic task has a real-time **mandatory part**, a set of
//! non-real-time **parallel optional parts** that improve QoS and may be
//! *completed*, *terminated* or *discarded* independently, and a real-time
//! **wind-up part** released at the offline-computed **optional deadline**.
//! Semi-fixed-priority scheduling keeps each part's priority fixed and
//! changes a task's priority only at the two part boundaries (paper §III).
//!
//! ## Architecture
//!
//! * [`config::SystemConfig`] — ties a task set to a topology: partitioned
//!   placement of mandatory threads, SCHED_FIFO priority bands
//!   (HPQ 99 / RTQ 50–98 / NRTQ 1–49), optional deadlines, and the
//!   optional-part **assignment policy** (One by One / Two by Two /
//!   All by All, paper Fig. 8).
//! * [`engine::Engine`] — the backend-independent P-RMWP part state
//!   machine (release → mandatory → parallel optional → OD termination →
//!   wind-up), shared by every executor; backends are thin drivers.
//! * [`exec_sim::SimExecutor`] — runs the full Fig. 6 protocol on the
//!   `rtseed-sim` discrete-event many-core substrate, measuring the four
//!   overheads (Δm, Δb, Δs, Δe) exactly as §V-B does. Its event loop is
//!   the crate's one discrete-event driver, which also runs under
//!   [`exec_global::GlobalExecutor`] (global dispatch, migration cost)
//!   and the serving layer.
//! * [`runtime::NativeExecutor`] — runs the same protocol on real Linux
//!   threads with `SCHED_FIFO`/affinity via `libc` (degrading gracefully
//!   without privileges; see `RuntimeReport`).
//! * [`termination`] — the three optional-part termination mechanisms of
//!   Table I.
//! * [`executor`] — the [`executor::RunConfig`] every backend's `run`
//!   reads and the [`executor::Outcome`] it returns.
//! * [`obs`] — structured tracing ([`obs::TraceEvent`]) and histogram
//!   metrics ([`obs::MetricsRegistry`]), with JSONL and Chrome-trace
//!   exporters.
//! * [`serve`] — the multi-tenant serving layer: a
//!   [`serve::SessionManager`] admits tenant task sets at runtime via the
//!   online RMWP admission test and drives the admitted population through
//!   the shared engine, with per-tenant QoS accounting and deterministic
//!   churn replay.
//!
//! ## Quickstart
//!
//! ```
//! use rtseed::prelude::*;
//!
//! // The paper's evaluation task: T = 1 s, m = w = 250 ms, 57 optional
//! // parts that always overrun.
//! let task = TaskSpec::builder("trader")
//!     .period(Span::from_secs(1))
//!     .mandatory(Span::from_millis(250))
//!     .windup(Span::from_millis(250))
//!     .optional_parts(57, Span::from_secs(1))
//!     .build()?;
//! let set = TaskSet::new(vec![task])?;
//! let config = SystemConfig::build(
//!     set,
//!     Topology::xeon_phi_3120a(),
//!     AssignmentPolicy::OneByOne,
//! )?;
//! let run = RunConfig::builder().jobs(5).build()?;
//! let outcome = SimExecutor::new(config, run).run();
//! assert_eq!(outcome.qos.deadline_misses(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs, missing_debug_implementations)]
// `unsafe` is confined to `runtime::posix` (libc calls) and the one
// time-stamp counter read in `obs::clock`; everything else is checked at
// the module level.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
mod des;
pub mod engine;
pub mod exec_global;
pub mod exec_sim;
pub mod executor;
pub mod obs;
pub mod policy;
pub mod prelude;
pub mod priority;
pub mod profile;
pub mod report;
pub mod runtime;
pub mod serve;
mod supervisor;
pub mod termination;

pub use config::{ConfigError, SystemConfig};
pub use exec_global::GlobalExecutor;
pub use exec_sim::{SimArena, SimExecutor};
pub use executor::{Outcome, RunConfig, RunConfigError};
pub use policy::AssignmentPolicy;
pub use priority::PriorityMap;
pub use report::{FaultReport, OverheadReport};
pub use serve::{
    GuardConfig, GuardStats, LadderRung, RejectReason, ServeArena, ServeCounters, ServeError,
    ServeOutcome, SessionManager, Submission, TenantOutcome,
};
pub use termination::TerminationMode;
