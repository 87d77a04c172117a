//! The run parameters and results every backend shares: one
//! [`RunConfig`] in, one [`Outcome`] out.
//!
//! RT-Seed can run the same [`SystemConfig`](crate::config::SystemConfig)
//! on three substrates — the discrete-event simulator
//! ([`crate::exec_sim::SimExecutor`]), the global-scheduling ablation
//! ([`crate::exec_global::GlobalExecutor`]), and real POSIX threads
//! ([`crate::runtime::NativeExecutor`]). Each has one `run`; they accept
//! the same [`RunConfig`] (each backend reads the fields that apply to
//! it) and produce the same [`Outcome`], so measurement and comparison
//! code is backend-agnostic.
//!
//! # Examples
//!
//! Build a validated run configuration:
//!
//! ```
//! use rtseed::executor::{RunConfig, RunConfigError};
//! use rtseed::obs::TraceConfig;
//!
//! let run = RunConfig::builder()
//!     .jobs(50)
//!     .seed(7)
//!     .trace(TraceConfig::enabled())
//!     .build()?;
//! assert_eq!(run.jobs, 50);
//!
//! // Validation errors are typed:
//! let err = RunConfig::builder().rt_exec_fraction(2.0).build().unwrap_err();
//! assert!(matches!(err, RunConfigError::ExecFraction { .. }));
//! # Ok::<(), rtseed::executor::RunConfigError>(())
//! ```

use core::fmt;

use rtseed_model::{QosSummary, Span};
use rtseed_sim::{BackgroundLoad, Calibration, FaultPlan, OverheadKind};

use crate::obs::{MetricsRegistry, Trace, TraceConfig};
use crate::report::{FaultReport, OverheadReport};
use crate::runtime::RuntimeReport;
use crate::termination::TerminationMode;

/// Run parameters shared by every backend.
///
/// Each backend reads the subset that applies to it and ignores the rest
/// (the simulator ignores `attempt_rt`; the native runtime ignores
/// `calibration`, `load`, `seed`, `fault_plan`, `supervisor`; the global
/// ablation ignores `calibration`, `load`). Construct it with
/// [`RunConfig::builder`] for validation, or as a struct literal with
/// `..Default::default()`.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of jobs each task executes (the paper uses 100).
    pub jobs: u64,
    /// Background load condition (§V-B; sim backend).
    pub load: BackgroundLoad,
    /// Overhead-model calibration (sim backend).
    pub calibration: Calibration,
    /// Seed for the deterministic jitter stream (sim backend).
    pub seed: u64,
    /// Optional-part termination mechanism (Table I).
    pub termination: TerminationMode,
    /// Observability sink: whether and how to record a [`Trace`].
    pub trace: TraceConfig,
    /// Fraction of the declared mandatory/wind-up WCET the actual
    /// computation consumes. The paper's model states that "the overheads
    /// of real-time scheduling are included in the WCETs of the
    /// mandatory/wind-up parts" (§II-A), so the real computation must
    /// leave headroom for Δm/Δb/Δs/Δe; 0.75 leaves 25 %, enough for the
    /// worst measured Δe (≈ 55 ms at np = 228 under CPU-Memory load
    /// against a 250 ms wind-up WCET).
    pub rt_exec_fraction: f64,
    /// Deterministic fault schedule injected into the run
    /// ([`FaultPlan::none`] by default: a healthy machine).
    pub fault_plan: FaultPlan,
    /// Whether the overload supervisor is armed (off by default: faults
    /// run their course unsupervised). Armed, it cuts every real-time
    /// part at its declared WCET, quarantines a task's optional parts
    /// after 3 consecutive overruns and sheds every task's after 2
    /// overrun events in a row, each until 4 clean jobs (DESIGN.md,
    /// "Overload supervisor"). The thresholds are constants: one value of
    /// each is in use.
    pub supervisor: bool,
    /// Whether to attempt `SCHED_FIFO` and affinity syscalls (native
    /// backend only; disable in tests that must not perturb the host).
    pub attempt_rt: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            jobs: 100,
            load: BackgroundLoad::NoLoad,
            calibration: Calibration::default(),
            seed: 0,
            termination: TerminationMode::SigjmpTimer,
            trace: TraceConfig::disabled(),
            rt_exec_fraction: 0.75,
            fault_plan: FaultPlan::none(),
            supervisor: false,
            attempt_rt: true,
        }
    }
}

impl RunConfig {
    /// Starts a builder with the defaults.
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder {
            cfg: RunConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`RunConfigError::ExecFraction`] unless
    /// `0 < rt_exec_fraction ≤ 1`; [`RunConfigError::ZeroTraceCapacity`]
    /// if tracing is enabled with a zero-event ring.
    pub fn validate(&self) -> Result<(), RunConfigError> {
        if !(self.rt_exec_fraction > 0.0 && self.rt_exec_fraction <= 1.0) {
            return Err(RunConfigError::ExecFraction {
                got: self.rt_exec_fraction,
            });
        }
        if self.trace.enabled && self.trace.capacity == 0 {
            return Err(RunConfigError::ZeroTraceCapacity);
        }
        Ok(())
    }
}

/// Builder for [`RunConfig`]; finish with
/// [`build`](RunConfigBuilder::build) for a validated configuration.
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    /// Number of jobs each task executes.
    pub fn jobs(mut self, jobs: u64) -> Self {
        self.cfg.jobs = jobs;
        self
    }

    /// Background load condition (sim backend).
    pub fn load(mut self, load: BackgroundLoad) -> Self {
        self.cfg.load = load;
        self
    }

    /// Overhead-model calibration (sim backend).
    pub fn calibration(mut self, calibration: Calibration) -> Self {
        self.cfg.calibration = calibration;
        self
    }

    /// Seed for the deterministic jitter stream (sim backend).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Optional-part termination mechanism.
    pub fn termination(mut self, termination: TerminationMode) -> Self {
        self.cfg.termination = termination;
        self
    }

    /// Observability sink configuration.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.cfg.trace = trace;
        self
    }

    /// Fraction of declared WCET the real computation consumes.
    pub fn rt_exec_fraction(mut self, fraction: f64) -> Self {
        self.cfg.rt_exec_fraction = fraction;
        self
    }

    /// Deterministic fault schedule.
    pub fn fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.cfg.fault_plan = fault_plan;
        self
    }

    /// Whether the overload supervisor is armed.
    pub fn supervisor(mut self, armed: bool) -> Self {
        self.cfg.supervisor = armed;
        self
    }

    /// Whether to attempt privileged RT syscalls (native backend).
    pub fn attempt_rt(mut self, attempt: bool) -> Self {
        self.cfg.attempt_rt = attempt;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`RunConfig::validate`].
    pub fn build(self) -> Result<RunConfig, RunConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A [`RunConfig`] validation error.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RunConfigError {
    /// `rt_exec_fraction` must lie in `(0, 1]`.
    ExecFraction {
        /// The rejected value.
        got: f64,
    },
    /// Tracing was enabled with a zero-capacity ring.
    ZeroTraceCapacity,
}

impl fmt::Display for RunConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunConfigError::ExecFraction { got } => {
                write!(f, "rt_exec_fraction must be within (0, 1], got {got}")
            }
            RunConfigError::ZeroTraceCapacity => {
                write!(f, "trace ring capacity must be at least 1 event")
            }
        }
    }
}

impl std::error::Error for RunConfigError {}

/// Unified results of a run on any backend.
///
/// Fields a backend does not produce hold their empty/zero defaults
/// (e.g. `migrations` is 0 for the partitioned backends, `runtime` is
/// all-default off the native backend; the global ablation records only
/// the termination overhead Δe, since its dispatch itself is costless).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// QoS summary across all jobs of all tasks.
    pub qos: QosSummary,
    /// The four middleware overheads (Δm, Δb, Δs, Δe): their histograms,
    /// read from [`metrics`](Outcome::metrics) when the run ends.
    pub overheads: OverheadReport,
    /// Fault injections observed and supervisor responses.
    pub faults: FaultReport,
    /// Histogram metrics: overheads, response times, release jitter, QoS.
    pub metrics: MetricsRegistry,
    /// Execution trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// Real-time part migrations (global backend).
    pub migrations: u64,
    /// Total execution time added by migrations (global backend).
    pub migration_overhead: Span,
    /// Real-time dispatches (global backend).
    pub dispatches: u64,
    /// Discrete events processed by the event loop (sim and global
    /// backends; 0 for the native backend, which has no event loop).
    /// perfbench divides this by wall-clock time for its
    /// `core.exec_sim.ns_per_event` row.
    pub events_processed: u64,
    /// What the privileged setup calls achieved (native backend).
    pub runtime: RuntimeReport,
}

impl Outcome {
    /// A human-readable multi-line summary — QoS, the four overhead means,
    /// faults and trace volume — shared by the example and bench binaries
    /// so each does not hand-roll its own report.
    pub fn summary(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "QoS: {}", self.qos);
        let _ = writeln!(s, "Overheads (mean over {} jobs):", self.qos.jobs());
        for kind in OverheadKind::ALL {
            let _ = writeln!(s, "  {:>3}: {}", kind.symbol(), self.overheads.mean(kind));
        }
        if !self.faults.is_clean() {
            let _ = writeln!(s, "Faults: {}", self.faults);
        }
        if !self.trace.is_empty() {
            let _ = writeln!(
                s,
                "Trace: {} events ({} dropped)",
                self.trace.len(),
                self.trace.dropped()
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let cfg = RunConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.jobs, 100);
        assert!(!cfg.trace.enabled);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = RunConfig::builder()
            .jobs(7)
            .seed(42)
            .rt_exec_fraction(1.0)
            .supervisor(true)
            .attempt_rt(false)
            .trace(TraceConfig::bounded(128))
            .build()
            .unwrap();
        assert_eq!(cfg.jobs, 7);
        assert_eq!(cfg.seed, 42);
        assert!(cfg.supervisor);
        assert!(!cfg.attempt_rt);
        assert!(cfg.trace.enabled);
        assert_eq!(cfg.trace.capacity, 128);
    }

    #[test]
    fn exec_fraction_is_validated() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = RunConfig::builder().rt_exec_fraction(bad).build();
            assert!(
                matches!(err, Err(RunConfigError::ExecFraction { .. })),
                "{bad} must be rejected"
            );
        }
        assert!(RunConfig::builder().rt_exec_fraction(1.0).build().is_ok());
    }

    #[test]
    fn zero_trace_capacity_is_rejected_only_when_enabled() {
        let err = RunConfig::builder()
            .trace(TraceConfig::bounded(0))
            .build()
            .unwrap_err();
        assert_eq!(err, RunConfigError::ZeroTraceCapacity);
        assert!(err.to_string().contains("at least 1"), "{err}");
        // A zero capacity on a *disabled* sink is inert, not an error.
        let cfg = RunConfig {
            trace: TraceConfig {
                enabled: false,
                capacity: 0,
            },
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn error_display_and_source() {
        let e = RunConfigError::ExecFraction { got: 1.5 };
        assert!(e.to_string().contains("got 1.5"), "{e}");
        assert!(std::error::Error::source(&e).is_none());
    }
}
