//! # rtseed-model
//!
//! Core domain types shared by every crate in the RT-Seed workspace:
//! simulated time, task/topology identifiers, the **parallel-extended
//! imprecise computation model** task descriptions, many-core topologies,
//! and QoS accounting.
//!
//! The parallel-extended imprecise computation model (paper §II-A) splits
//! each periodic task τᵢ into
//!
//! * a **mandatory part** with worst-case execution time `mᵢ`,
//! * `npᵢ` **parallel optional parts** with execution times `oᵢ,ₖ`
//!   (non-real-time; each is *completed*, *terminated* or *discarded*
//!   independently), and
//! * a **wind-up part** with worst-case execution time `wᵢ` released at the
//!   *optional deadline* `ODᵢ`.
//!
//! The WCET of the task is `Cᵢ = mᵢ + wᵢ`; optional execution never counts
//! towards schedulability (Theorems 1 and 2 of the paper).
//!
//! # Examples
//!
//! ```
//! use rtseed_model::{Span, TaskSpec, TaskSet, Topology};
//!
//! // The evaluation task of paper §V-A: T = 1 s, m = w = 250 ms,
//! // 57 parallel optional parts of 1 s each (always overrun).
//! let task = TaskSpec::builder("trader")
//!     .period(Span::from_secs(1))
//!     .mandatory(Span::from_millis(250))
//!     .windup(Span::from_millis(250))
//!     .optional_parts(57, Span::from_secs(1))
//!     .build()
//!     .unwrap();
//! let set = TaskSet::new(vec![task]).unwrap();
//! let phi = Topology::xeon_phi_3120a();
//! assert_eq!(phi.hw_threads(), 228);
//! assert!(set.total_utilization() <= phi.hw_threads() as f64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ids;
pub mod qos;
pub mod state;
pub mod task;
pub mod time;
pub mod topology;

pub use ids::{CoreId, HwThreadId, JobId, PartId, Priority, TaskId, TenantId};
pub use qos::QosSummary;
pub use state::{JobPhase, OptionalOutcome, TenantState};
pub use task::{TaskSet, TaskSetError, TaskSpec, TaskSpecBuilder};
pub use time::{Span, Time};
pub use topology::{Topology, TopologyError};
