//! Overhead statistics — the measurement side of the paper's §V-B (means
//! over 100 jobs per configuration) — plus the fault / overload resilience
//! report produced when a run executes under a
//! [`FaultPlan`](rtseed_sim::FaultPlan) with the overload supervisor.

use core::fmt;

use rtseed_model::Span;
use rtseed_sim::OverheadKind;

use crate::obs::{Histogram, MetricsRegistry};

/// The four overheads (Δm, Δb, Δs, Δe) across a run's jobs: the run's
/// overhead histograms, read from its [`MetricsRegistry`] once the run
/// ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverheadReport {
    kinds: [Histogram; OverheadKind::ALL.len()],
}

impl OverheadReport {
    /// An empty report.
    pub fn new() -> OverheadReport {
        OverheadReport::default()
    }

    /// The overhead histograms `metrics` recorded.
    pub fn from_metrics(metrics: &MetricsRegistry) -> OverheadReport {
        OverheadReport {
            kinds: OverheadKind::ALL.map(|kind| metrics.overhead(kind).clone()),
        }
    }

    fn histogram(&self, kind: OverheadKind) -> &Histogram {
        &self.kinds[kind as usize]
    }

    /// Number of samples of `kind`.
    pub fn count(&self, kind: OverheadKind) -> usize {
        self.histogram(kind).count() as usize
    }

    /// Arithmetic mean of `kind`'s samples, truncated to the nanosecond
    /// ([`Span::ZERO`] when empty).
    pub fn mean(&self, kind: OverheadKind) -> Span {
        self.histogram(kind).mean_span()
    }

    /// Largest sample of `kind` ([`Span::ZERO`] when empty).
    pub fn max(&self, kind: OverheadKind) -> Span {
        self.histogram(kind).max_span()
    }
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for kind in OverheadKind::ALL {
            writeln!(
                f,
                "{}: n={} mean={} max={}",
                kind.symbol(),
                self.count(kind),
                self.mean(kind),
                self.max(kind),
            )?;
        }
        Ok(())
    }
}

/// What the fault plan did to a run and how the overload supervisor
/// responded — the resilience counterpart of [`OverheadReport`].
///
/// All counters are totals over one run; [`merge`](FaultReport::merge)
/// combines runs (dwell/latency spans add, so per-run means need the
/// episode counts).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultReport {
    /// WCET overruns the plan injected (demand multipliers applied).
    pub wcet_faults: u64,
    /// Optional-deadline timer faults injected (delays and losses).
    pub timer_faults: u64,
    /// CPU stall windows entered.
    pub cpu_stalls: u64,
    /// Real-time part overruns the supervisor observed (demand exceeded
    /// the per-task budget).
    pub overruns_detected: u64,
    /// Real-time parts the supervisor cut at their budget.
    pub budget_cuts: u64,
    /// Quarantine episodes entered (a task's optional parts shed after
    /// consecutive overruns).
    pub quarantines: u64,
    /// Jobs whose optional parts were shed by quarantine or degraded mode.
    pub jobs_degraded: u64,
    /// Times the system entered degraded (mandatory + wind-up only) mode.
    pub degraded_entries: u64,
    /// Total simulated time spent in degraded mode.
    pub degraded_dwell: Span,
    /// Total time from first overrun of an overload episode to full
    /// recovery (normal mode restored). Divide by
    /// [`degraded_entries`](FaultReport::degraded_entries) for the mean.
    pub recovery_latency: Span,
}

impl FaultReport {
    /// An all-zero report.
    pub fn new() -> FaultReport {
        FaultReport::default()
    }

    /// `true` when nothing was injected and nothing was supervised away —
    /// the report of a healthy run.
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Adds another run's counters into this one.
    pub fn merge(&mut self, other: &FaultReport) {
        self.wcet_faults += other.wcet_faults;
        self.timer_faults += other.timer_faults;
        self.cpu_stalls += other.cpu_stalls;
        self.overruns_detected += other.overruns_detected;
        self.budget_cuts += other.budget_cuts;
        self.quarantines += other.quarantines;
        self.jobs_degraded += other.jobs_degraded;
        self.degraded_entries += other.degraded_entries;
        self.degraded_dwell += other.degraded_dwell;
        self.recovery_latency += other.recovery_latency;
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "injected: {} wcet, {} timer, {} cpu-stall",
            self.wcet_faults, self.timer_faults, self.cpu_stalls
        )?;
        writeln!(
            f,
            "supervisor: {} overruns, {} budget cuts, {} quarantines, {} jobs degraded",
            self.overruns_detected, self.budget_cuts, self.quarantines, self.jobs_degraded
        )?;
        write!(
            f,
            "degraded mode: {} entries, dwell {}, recovery latency {}",
            self.degraded_entries, self.degraded_dwell, self.recovery_latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Span {
        Span::from_micros(v)
    }

    #[test]
    fn empty_report_is_zero() {
        let r = OverheadReport::new();
        for kind in OverheadKind::ALL {
            assert_eq!(r.count(kind), 0);
            assert_eq!(r.mean(kind), Span::ZERO);
            assert_eq!(r.max(kind), Span::ZERO);
        }
    }

    #[test]
    fn mean_min_max() {
        let mut m = MetricsRegistry::new();
        for v in [10u64, 20, 30] {
            m.record_overhead(OverheadKind::BeginMandatory, us(v));
        }
        // The mean truncates: (1 ns + 2 ns) / 2 reads 1 ns.
        m.record_overhead(OverheadKind::EndOptional, Span::from_nanos(1));
        m.record_overhead(OverheadKind::EndOptional, Span::from_nanos(2));
        let r = OverheadReport::from_metrics(&m);
        assert_eq!(r.count(OverheadKind::BeginMandatory), 3);
        assert_eq!(r.mean(OverheadKind::BeginMandatory), us(20));
        assert_eq!(m.overhead(OverheadKind::BeginMandatory).min(), 10_000);
        assert_eq!(r.max(OverheadKind::BeginMandatory), us(30));
        assert_eq!(r.count(OverheadKind::EndOptional), 2);
        assert_eq!(r.mean(OverheadKind::EndOptional), Span::from_nanos(1));
        // Other kinds untouched.
        assert_eq!(r.count(OverheadKind::BeginOptional), 0);
        assert_eq!(r.mean(OverheadKind::SwitchToOptional), Span::ZERO);
    }

    #[test]
    fn display_contains_all_symbols() {
        let r = OverheadReport::new();
        let s = r.to_string();
        for kind in OverheadKind::ALL {
            assert!(s.contains(kind.symbol()), "{s}");
        }
    }

    #[test]
    fn fault_report_clean_and_merge() {
        let mut a = FaultReport::new();
        assert!(a.is_clean());
        let b = FaultReport {
            wcet_faults: 2,
            budget_cuts: 1,
            degraded_entries: 1,
            degraded_dwell: us(500),
            recovery_latency: us(700),
            ..FaultReport::default()
        };
        assert!(!b.is_clean());
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.wcet_faults, 4);
        assert_eq!(a.degraded_entries, 2);
        assert_eq!(a.degraded_dwell, us(1000));
        assert_eq!(a.recovery_latency, us(1400));
        let s = a.to_string();
        assert!(s.contains("4 wcet"), "{s}");
        assert!(s.contains("2 entries"), "{s}");
    }
}
