//! Exact response-time analysis (RTA) for uniprocessor fixed-priority
//! scheduling.
//!
//! The classic fixpoint of Joseph & Pandya / Audsley et al.:
//!
//! ```text
//! R = C + Σ_{j ∈ hp} ⌈R / Tⱼ⌉ · Cⱼ
//! ```
//!
//! iterated from `R₀ = C` until it converges or exceeds the deadline. This
//! is the work-horse for every higher-level test in this crate: plain RM
//! admission, the RMWP mandatory/wind-up response times, and partitioned
//! admission.

use core::fmt;

use rtseed_model::Span;

/// Interference source for RTA: a higher-priority periodic contributor with
/// period `period` demanding `demand` units each period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interferer {
    /// The contributor's period Tⱼ.
    pub period: Span,
    /// Execution demand per period (for RMWP this is `mⱼ + wⱼ`).
    pub demand: Span,
}

/// Errors from the RTA fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtaError {
    /// The response time exceeded the supplied bound (deadline): the task is
    /// unschedulable at this priority.
    ExceedsBound {
        /// Value of the iterate when it crossed the bound.
        reached: Span,
        /// The bound that was crossed.
        bound: Span,
    },
    /// The fixpoint failed to converge within the iteration budget, which
    /// only happens for pathological inputs (e.g. total utilization ≥ 1
    /// combined with an enormous bound).
    Diverged,
}

impl fmt::Display for RtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtaError::ExceedsBound { reached, bound } => {
                write!(f, "response time {reached} exceeds bound {bound}")
            }
            RtaError::Diverged => write!(f, "response-time iteration diverged"),
        }
    }
}

impl std::error::Error for RtaError {}

/// Maximum fixpoint iterations before declaring divergence. Each iteration
/// strictly increases the iterate by at least 1 ns when not converged, but
/// realistic task sets converge within a handful of steps; the budget only
/// guards against adversarial inputs.
const MAX_ITERS: usize = 1_000_000;

/// Computes the worst-case response time of a job of cost `cost` released
/// together with all higher-priority interferers (critical instant),
/// bounded by `bound`.
///
/// # Errors
///
/// * [`RtaError::ExceedsBound`] if the fixpoint crosses `bound` — the task
///   misses its deadline;
/// * [`RtaError::Diverged`] if the iteration budget is exhausted.
///
/// # Examples
///
/// ```
/// use rtseed_model::Span;
/// use rtseed_analysis::rta::{response_time, Interferer};
/// let hp = [Interferer { period: Span::from_millis(10), demand: Span::from_millis(2) }];
/// let r = response_time(Span::from_millis(3), &hp, Span::from_millis(20)).unwrap();
/// assert_eq!(r, Span::from_millis(5));
/// ```
pub fn response_time(
    cost: Span,
    higher_priority: &[Interferer],
    bound: Span,
) -> Result<Span, RtaError> {
    response_time_from(cost, cost, higher_priority, bound)
}

/// [`response_time`] with the iteration started at `start` instead of at
/// `cost` — the fixpoint iteration itself; there is no other copy.
///
/// `start` must satisfy `start ≤ f(start)` and `start ≤ lfp(f)`, where `f`
/// is the iterated function. `cost` always does. So does the response
/// time `R_old` the same job had under a *subset* of `higher_priority`:
/// with more interference `f_new ≥ f_old` pointwise, so
/// `R_old = f_old(R_old) ≤ f_new(R_old)`; and for `L = lfp(f_new)`,
/// `f_old(L) ≤ f_new(L) = L`, so the iteration of `f_old` from `cost` never
/// passes `L`: `R_old ≤ L`. The iteration of `f_new` from `R_old` is then
/// non-decreasing and bounded by `L`, hence ends on it: the result is the
/// value the iteration from `cost` returns, and it exceeds `bound` iff that
/// one does (only the iterate reported in [`RtaError::ExceedsBound`] may
/// differ).
///
/// **Only valid when interference grew.** After an interferer left or
/// changed, an old response time may lie *above* the new least fixpoint,
/// and the iteration from it would return a fixpoint that is not the least
/// one: start from `cost` then.
///
/// # Errors
///
/// As for [`response_time`].
pub fn response_time_from(
    cost: Span,
    start: Span,
    higher_priority: &[Interferer],
    bound: Span,
) -> Result<Span, RtaError> {
    debug_assert!(start >= cost, "no response time is shorter than the cost");
    if start > bound {
        return Err(RtaError::ExceedsBound {
            reached: start,
            bound,
        });
    }
    let mut r = start;
    for _ in 0..MAX_ITERS {
        let mut next = cost;
        for hp in higher_priority {
            debug_assert!(!hp.period.is_zero(), "interferer period must be positive");
            let jobs = r.div_ceil(hp.period).max(1);
            next = match hp
                .demand
                .checked_mul(jobs)
                .and_then(|d| next.checked_add(d))
            {
                Some(v) => v,
                None => {
                    return Err(RtaError::ExceedsBound {
                        reached: Span::MAX,
                        bound,
                    })
                }
            };
        }
        if next > bound {
            return Err(RtaError::ExceedsBound {
                reached: next,
                bound,
            });
        }
        if next == r {
            return Ok(r);
        }
        r = next;
    }
    Err(RtaError::Diverged)
}

/// Convenience: the worst-case response time of task `index` (0 = highest
/// priority) in a priority-ordered list of `(cost, period)` pairs with
/// implicit deadlines.
///
/// # Errors
///
/// Propagates [`RtaError`] from [`response_time`].
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn response_time_at(
    tasks: &[(Span, Span)],
    index: usize,
) -> Result<Span, RtaError> {
    let (cost, period) = tasks[index];
    let hp: Vec<Interferer> = tasks[..index]
        .iter()
        .map(|&(c, t)| Interferer {
            period: t,
            demand: c,
        })
        .collect();
    response_time(cost, &hp, period)
}

/// Checks whether every task in a priority-ordered `(cost, period)` list
/// meets its implicit deadline under preemptive fixed-priority scheduling.
pub fn all_schedulable(tasks: &[(Span, Span)]) -> bool {
    (0..tasks.len()).all(|i| response_time_at(tasks, i).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Span {
        Span::from_millis(v)
    }

    #[test]
    fn no_interference_is_cost() {
        assert_eq!(response_time(ms(3), &[], ms(10)).unwrap(), ms(3));
    }

    #[test]
    fn textbook_example() {
        // τ1 = (1, 4), τ2 = (2, 6), τ3 = (3, 13) — a classic RTA example.
        let tasks = [(ms(1), ms(4)), (ms(2), ms(6)), (ms(3), ms(13))];
        assert_eq!(response_time_at(&tasks, 0).unwrap(), ms(1));
        assert_eq!(response_time_at(&tasks, 1).unwrap(), ms(3));
        // R3 = 3 + ⌈R/4⌉·1 + ⌈R/6⌉·2 → fixpoint at 10 (3 + 3·1 + 2·2).
        assert_eq!(response_time_at(&tasks, 2).unwrap(), ms(10));
        assert!(all_schedulable(&tasks));
    }

    #[test]
    fn deadline_miss_detected() {
        // Two tasks with combined utilization 1.25 cannot fit.
        let tasks = [(ms(5), ms(8)), (ms(5), ms(8))];
        assert!(matches!(
            response_time_at(&tasks, 1),
            Err(RtaError::ExceedsBound { .. })
        ));
        assert!(!all_schedulable(&tasks));
    }

    #[test]
    fn cost_larger_than_bound_fails_fast() {
        let err = response_time(ms(10), &[], ms(5)).unwrap_err();
        assert_eq!(
            err,
            RtaError::ExceedsBound {
                reached: ms(10),
                bound: ms(5)
            }
        );
    }

    #[test]
    fn exact_fit_at_bound_is_schedulable() {
        // R = exactly the deadline is a (just) schedulable task.
        let tasks = [(ms(4), ms(8)), (ms(4), ms(8))];
        assert_eq!(response_time_at(&tasks, 1).unwrap(), ms(8));
    }

    #[test]
    fn full_utilization_harmonic_set() {
        // Harmonic periods schedule up to U = 1 under RM.
        let tasks = [(ms(2), ms(4)), (ms(2), ms(8)), (ms(2), ms(16))];
        assert!(all_schedulable(&tasks));
        assert_eq!(response_time_at(&tasks, 2).unwrap(), ms(8));
    }

    #[test]
    fn overflow_reported_as_exceeds_bound() {
        let hp = [Interferer {
            period: Span::from_nanos(1),
            demand: Span::MAX / 2,
        }];
        assert!(response_time(Span::from_nanos(1), &hp, Span::MAX).is_err());
    }

    #[test]
    fn interference_counts_at_least_one_job() {
        // Even an interferer with a huge period contributes one job at the
        // critical instant.
        let hp = [Interferer {
            period: Span::from_secs(1000),
            demand: ms(5),
        }];
        assert_eq!(response_time(ms(1), &hp, ms(100)).unwrap(), ms(6));
    }

    #[test]
    fn warm_start_from_above_the_bound_fails_fast() {
        let hp = [Interferer {
            period: ms(10),
            demand: ms(2),
        }];
        assert_eq!(
            response_time_from(ms(3), ms(7), &hp, ms(6)),
            Err(RtaError::ExceedsBound {
                reached: ms(7),
                bound: ms(6)
            })
        );
    }

    proptest::proptest! {
        /// Started from the response time the job had under any subset of
        /// the interferers — a prefix included — the iteration ends where
        /// the one from `cost` ends: same value, or the same kind of error.
        #[test]
        fn warm_start_reaches_the_cold_fixpoint(
            cost in 0u64..400,
            hp in proptest::collection::vec((1u64..300, 0u64..60), 0..7),
            keep in 0u32..128,
            bound in 1u64..5_000,
        ) {
            let hp: Vec<Interferer> = hp
                .into_iter()
                .map(|(t, c)| Interferer {
                    period: Span::from_micros(t),
                    demand: Span::from_micros(c),
                })
                .collect();
            let subset: Vec<Interferer> = hp
                .iter()
                .enumerate()
                .filter(|(i, _)| keep & (1 << i) != 0)
                .map(|(_, &i)| i)
                .collect();
            let (cost, bound) = (Span::from_micros(cost), Span::from_micros(bound));
            for earlier in [&subset[..], &hp[..hp.len() / 2]] {
                // Under a subset the response time is no longer, so a job
                // that had none there has none to start from.
                let Ok(start) = response_time(cost, earlier, Span::from_secs(1)) else {
                    continue;
                };
                let warm = response_time_from(cost, start, &hp, bound);
                let cold = response_time(cost, &hp, bound);
                proptest::prop_assert_eq!(warm.ok(), cold.ok());
                proptest::prop_assert_eq!(
                    warm.err().map(|e| core::mem::discriminant(&e)),
                    cold.err().map(|e| core::mem::discriminant(&e))
                );
            }
        }
    }

    #[test]
    fn error_display() {
        let e = RtaError::ExceedsBound {
            reached: ms(12),
            bound: ms(10),
        };
        assert_eq!(e.to_string(), "response time 12ms exceeds bound 10ms");
        assert_eq!(RtaError::Diverged.to_string(), "response-time iteration diverged");
    }
}
