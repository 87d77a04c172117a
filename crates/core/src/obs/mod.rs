//! Observability: structured tracing and metrics for every backend.
//!
//! The paper's evaluation is measurement-driven — Figs. 10–13 plot the
//! four middleware overheads and §V reasons about queue and part-state
//! behaviour from traces. This module is the one pipeline those
//! measurements flow through, shared by [`crate::exec_sim`],
//! [`crate::exec_global`], [`crate::runtime`], and `rtseed-trading`:
//!
//! * [`TraceEvent`] — the typed schema: part transitions, queue
//!   operations (HPQ/RTQ/NRTQ/SQ), timer lifecycle, assignment-policy
//!   decisions, supervisor/fault events, trading pipeline stages.
//! * [`TraceRecorder`] / [`Trace`] — a bounded, drop-counting ring
//!   buffer (write side) and the time-ordered event list it produces
//!   (read side). One branch per record call when disabled.
//! * [`MetricsRegistry`] / [`Histogram`] — log₂-bucketed histograms for
//!   Δm/Δb/Δs/Δe, response times, release jitter, and QoS levels.
//! * [`clock`] — the hot path's timestamp: one counter reading a record,
//!   converted to nanoseconds when the records are read.
//! * [`export`] — JSONL and Chrome trace-event (Perfetto) exporters;
//!   byte-identical output for identical seeds.
//!
//! # Examples
//!
//! ```
//! use rtseed::prelude::*;
//!
//! let spec = TaskSpec::builder("sensor")
//!     .period(Span::from_millis(10))
//!     .mandatory(Span::from_millis(1))
//!     .windup(Span::from_millis(1))
//!     .optional_parts(2, Span::from_millis(3))
//!     .build()?;
//! let system = SystemConfig::build(
//!     TaskSet::new(vec![spec])?,
//!     Topology::new(2, 2)?,
//!     AssignmentPolicy::OneByOne,
//! )?;
//! let run = RunConfig::builder().jobs(3).trace(TraceConfig::enabled()).build()?;
//! let outcome = SimExecutor::new(system, run).run();
//!
//! assert!(!outcome.trace.is_empty());
//! let jsonl = rtseed::obs::export::jsonl(&outcome.trace);
//! let chrome = rtseed::obs::export::chrome_trace(&outcome.trace, &outcome.metrics);
//! assert!(jsonl.lines().count() > 1 && chrome.starts_with('{'));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod clock;
mod event;
pub mod export;
mod metrics;
mod recorder;

pub use event::{PipelineStage, QueueBand, QueueOp, TraceEvent};
pub use metrics::{Histogram, MetricsRegistry, QOS_PPM};
pub use recorder::{Trace, TraceConfig, TraceRecorder};
