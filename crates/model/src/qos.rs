//! QoS accounting for imprecise computation.
//!
//! The paper's QoS notion (§II-A): "the longer the optional part of each
//! task takes to execute, the higher its QoS is". We record, per job, how
//! much optional execution each parallel optional part achieved and its
//! terminal [`OptionalOutcome`], and summarize across jobs.

use core::fmt;

use crate::state::OptionalOutcome;
use crate::time::Span;

/// Aggregated QoS across many jobs.
///
/// # Examples
///
/// ```
/// use rtseed_model::{QosSummary, Span};
/// use rtseed_model::OptionalOutcome::*;
/// let parts = [(Span::from_millis(300), Completed), (Span::from_millis(100), Terminated)];
/// let mut sum = QosSummary::new();
/// let ratio = sum.record_job(parts, Span::from_millis(400), true, false);
/// assert!((ratio - 1.0).abs() < 1e-12);
/// assert_eq!(sum.jobs(), 1);
/// assert!((sum.mean_ratio() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QosSummary {
    jobs: u64,
    deadline_misses: u64,
    completed: u64,
    terminated: u64,
    discarded: u64,
    achieved_total: Span,
    requested_total: Span,
    ratio_sum: f64,
    degraded_jobs: u64,
}

impl QosSummary {
    /// An empty summary.
    pub fn new() -> QosSummary {
        QosSummary::default()
    }

    /// Folds one job into the summary: its `(achieved, outcome)` parts in
    /// part order, `requested` (the job's total requested optional
    /// execution `Σ oᵢ,ₖ`), whether the wind-up met the deadline, and
    /// whether the job ran under an overload supervisor's degraded mode or
    /// quarantine (its optional parts were shed rather than scheduled).
    /// The executors call this once per job on their hot path, streaming
    /// the parts without an intermediate vector. Returns the job's QoS
    /// ratio: achieved optional execution over `requested`, 1.0 when
    /// `requested` is zero (a job with no optional work trivially has full
    /// QoS).
    pub fn record_job<I>(
        &mut self,
        parts: I,
        requested: Span,
        deadline_met: bool,
        degraded: bool,
    ) -> f64
    where
        I: IntoIterator<Item = (Span, OptionalOutcome)>,
    {
        if degraded {
            self.degraded_jobs += 1;
        }
        self.jobs += 1;
        if !deadline_met {
            self.deadline_misses += 1;
        }
        let mut achieved = Span::ZERO;
        for (span, outcome) in parts {
            achieved += span;
            match outcome {
                OptionalOutcome::Completed => self.completed += 1,
                OptionalOutcome::Terminated => self.terminated += 1,
                OptionalOutcome::Discarded => self.discarded += 1,
            }
        }
        self.achieved_total += achieved;
        self.requested_total += requested;
        let ratio = if requested.is_zero() {
            1.0
        } else {
            achieved / requested
        };
        self.ratio_sum += ratio;
        ratio
    }

    /// Number of jobs recorded.
    #[inline]
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Number of jobs whose wind-up part missed its deadline.
    #[inline]
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Number of jobs that ran with optional parts shed (degraded mode or
    /// task quarantine).
    #[inline]
    pub fn degraded_jobs(&self) -> u64 {
        self.degraded_jobs
    }

    /// Optional parts completed / terminated / discarded across all jobs.
    #[inline]
    pub fn outcome_totals(&self) -> (u64, u64, u64) {
        (self.completed, self.terminated, self.discarded)
    }

    /// Total optional execution achieved.
    #[inline]
    pub fn achieved_total(&self) -> Span {
        self.achieved_total
    }

    /// Total optional execution requested.
    #[inline]
    pub fn requested_total(&self) -> Span {
        self.requested_total
    }

    /// Mean per-job QoS ratio (1.0 if no jobs were recorded).
    pub fn mean_ratio(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.ratio_sum / self.jobs as f64
        }
    }

    /// Aggregate QoS ratio: total achieved / total requested.
    pub fn aggregate_ratio(&self) -> f64 {
        if self.requested_total.is_zero() {
            1.0
        } else {
            self.achieved_total / self.requested_total
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &QosSummary) {
        self.jobs += other.jobs;
        self.deadline_misses += other.deadline_misses;
        self.completed += other.completed;
        self.terminated += other.terminated;
        self.discarded += other.discarded;
        self.achieved_total += other.achieved_total;
        self.requested_total += other.requested_total;
        self.ratio_sum += other.ratio_sum;
        self.degraded_jobs += other.degraded_jobs;
    }
}

impl fmt::Display for QosSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs, {} misses, {} degraded, parts C/T/D = {}/{}/{}, QoS {:.3}",
            self.jobs,
            self.deadline_misses,
            self.degraded_jobs,
            self.completed,
            self.terminated,
            self.discarded,
            self.aggregate_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS10: Span = Span::from_millis(10);

    #[test]
    fn record_accounting() {
        let mut s = QosSummary::new();
        let parts = [
            (MS10, OptionalOutcome::Completed),
            (Span::from_millis(5), OptionalOutcome::Terminated),
            (Span::ZERO, OptionalOutcome::Discarded),
        ];
        let ratio = s.record_job(parts, Span::from_millis(30), true, false);
        assert!((ratio - 0.5).abs() < 1e-12);
        assert_eq!(s.achieved_total(), Span::from_millis(15));
        assert_eq!(s.outcome_totals(), (1, 1, 1));
        assert!((s.record_job([], Span::ZERO, true, false) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_aggregates() {
        let mut s = QosSummary::new();
        s.record_job([(MS10, OptionalOutcome::Completed)], MS10, true, false);
        s.record_job(
            [(Span::from_millis(5), OptionalOutcome::Terminated)],
            MS10,
            false,
            false,
        );
        assert_eq!(s.jobs(), 2);
        assert_eq!(s.deadline_misses(), 1);
        assert_eq!(s.outcome_totals(), (1, 1, 0));
        assert_eq!(s.achieved_total(), Span::from_millis(15));
        assert_eq!(s.requested_total(), Span::from_millis(20));
        assert!((s.mean_ratio() - 0.75).abs() < 1e-12);
        assert!((s.aggregate_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_has_full_qos() {
        let s = QosSummary::new();
        assert_eq!(s.jobs(), 0);
        assert!((s.mean_ratio() - 1.0).abs() < 1e-12);
        assert!((s.aggregate_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = QosSummary::new();
        let mut b = QosSummary::new();
        a.record_job([(MS10, OptionalOutcome::Completed)], MS10, true, false);
        b.record_job(
            [(Span::ZERO, OptionalOutcome::Discarded)],
            MS10,
            true,
            false,
        );
        a.merge(&b);
        assert_eq!(a.jobs(), 2);
        assert_eq!(a.outcome_totals(), (1, 0, 1));
        assert!((a.aggregate_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degraded_jobs_are_counted_and_merged() {
        let mut a = QosSummary::new();
        a.record_job([], Span::ZERO, true, true);
        a.record_job([], Span::ZERO, true, false);
        assert_eq!(a.degraded_jobs(), 1);
        assert_eq!(a.jobs(), 2);
        let mut b = QosSummary::new();
        b.record_job([], Span::ZERO, true, true);
        a.merge(&b);
        assert_eq!(a.degraded_jobs(), 2);
        assert!(a.to_string().contains("2 degraded"), "{a}");
    }

    #[test]
    fn display_mentions_key_numbers() {
        let mut s = QosSummary::new();
        s.record_job([(MS10, OptionalOutcome::Completed)], MS10, true, false);
        let out = s.to_string();
        assert!(out.contains("1 jobs"), "{out}");
        assert!(out.contains("QoS 1.000"), "{out}");
    }
}
