//! The RT-Seed prelude: one `use` for the common surface.
//!
//! ```
//! use rtseed::prelude::*;
//!
//! let spec = TaskSpec::builder("t")
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
//! let outcome = SimExecutor::new(system, RunConfig::builder().jobs(2).build()?).run();
//! assert_eq!(outcome.qos.jobs(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use crate::config::{ConfigError, SystemConfig};
pub use crate::exec_global::GlobalExecutor;
pub use crate::exec_sim::SimExecutor;
pub use crate::executor::{Outcome, RunConfig, RunConfigBuilder, RunConfigError};
pub use crate::obs::{
    Histogram, MetricsRegistry, PipelineStage, QueueBand, QueueOp, Trace, TraceConfig, TraceEvent,
    TraceRecorder,
};
pub use crate::policy::AssignmentPolicy;
pub use crate::report::{FaultReport, OverheadReport};
pub use crate::serve::{
    GuardConfig, GuardStats, LadderRung, RejectReason, ServeCounters, ServeError, ServeOutcome,
    SessionManager, Submission, TenantOutcome,
};
pub use crate::runtime::{
    NativeExecutor, OptionalControl, RuntimeError, RuntimeReport, TaskBody,
};
pub use crate::termination::TerminationMode;

pub use rtseed_analysis::PartitionHeuristic;
pub use rtseed_model::{
    HwThreadId, JobId, OptionalOutcome, PartId, QosSummary, Span, TaskId, TaskSet,
    TaskSpec, TenantId, TenantState, Time, Topology,
};
pub use rtseed_sim::{BackgroundLoad, Calibration, ChurnPlan, FaultPlan, OverheadKind};
