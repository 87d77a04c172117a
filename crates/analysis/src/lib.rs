//! # rtseed-analysis
//!
//! Schedulability analysis substrate for semi-fixed-priority scheduling:
//!
//! * classic fixed-priority **response-time analysis** ([`rta`]),
//! * utilization **bounds** (Liu–Layland, hyperbolic, RMUS separation)
//!   ([`bounds`]),
//! * **RMWP optional-deadline calculation** and schedulability test
//!   ([`rmwp`]) — the offline analysis that makes semi-fixed-priority
//!   scheduling possible (paper §III and Theorems 1–2 of §IV-A),
//! * incremental **admission control** ([`admission`]): the one placement
//!   procedure (bin-packing heuristic + exact RMWP test + the split and
//!   federated-grant fallbacks) — per-CPU response-time fixpoints are
//!   memoised in an [`RtaCache`], so each decision re-analyzes only the
//!   CPUs it touches; this is what the serving layer consults on every
//!   tenant arrival/departure,
//! * **partitioned task assignment** for P-RMWP ([`partition`]): the whole
//!   task set admitted as one batch into an empty engine,
//! * **sharded admission** over disjoint CPU partitions ([`shard`]) for
//!   parallel batched rounds at tenant scale,
//! * synthetic **task-set generators** ([`taskgen`]).
//!
//! The parallel-extended model analysis is identical to the extended-model
//! analysis by the paper's Theorems 1 and 2 (optional parts never interfere
//! with real-time parts), so everything here is expressed over mandatory and
//! wind-up parts only.
//!
//! # Examples
//!
//! ```
//! use rtseed_model::{Span, TaskSpec, TaskSet};
//! use rtseed_analysis::rmwp::RmwpAnalysis;
//!
//! // Paper §V-A: single task, T = 1 s, m = w = 250 ms → OD = D − w = 750 ms.
//! let t = TaskSpec::builder("τ1")
//!     .period(Span::from_secs(1))
//!     .mandatory(Span::from_millis(250))
//!     .windup(Span::from_millis(250))
//!     .optional_parts(57, Span::from_secs(1))
//!     .build()?;
//! let set = TaskSet::new(vec![t])?;
//! let analysis = RmwpAnalysis::analyze(&set).expect("schedulable");
//! assert_eq!(analysis.optional_deadline(rtseed_model::TaskId(0)), Span::from_millis(750));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod admission;
pub mod bounds;
pub mod partition;
pub mod rmwp;
pub mod rta;
pub mod shard;
pub mod taskgen;

pub use admission::{
    Admission, AdmissionDecision, AdmissionEngine, AdmittedTask, CpuFixpoints, OdUpdate,
    PlacementKind, RejectReason, RtaCache, TaskKey,
};
pub use partition::{Partition, PartitionError, PartitionHeuristic, PlacementPolicy};
pub use shard::ShardedAdmission;
pub use rmwp::{RmwpAnalysis, RmwpError};
pub use rta::{response_time, RtaError};
