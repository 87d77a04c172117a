//! Remaining-execution-time profiles — paper Fig. 3's comparison of
//! *general scheduling* (Liu & Layland: the whole WCET `mᵢ + wᵢ` runs
//! contiguously from release) against *semi-fixed-priority scheduling*
//! (run `mᵢ`, sleep until `ODᵢ`, run `wᵢ`), for a task suffering no
//! higher-priority interference.
//!
//! The profile is the function `Rᵢ(t)`: how much real-time execution
//! remains at time `t` since release. Under semi-fixed-priority
//! scheduling the plateau between `mᵢ` and `ODᵢ` is exactly the window in
//! which parallel optional parts run *before* the wind-up part makes its
//! decision — the structural reason imprecise computation needs the
//! wind-up part at all (under general scheduling the decision completes
//! at `mᵢ + wᵢ`, before any optional analysis could inform it).

use rtseed_model::{Span, TaskSpec};

/// Which scheduling discipline a profile describes (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Liu & Layland general scheduling: `C = m + w` contiguous.
    General,
    /// Semi-fixed-priority: `m`, sleep until `OD`, then `w`.
    SemiFixed,
}

/// A piecewise-linear `R(t)` profile as breakpoints `(t, remaining)`.
/// Between breakpoints the remaining time interpolates linearly.
#[derive(Debug, Clone, PartialEq)]
pub struct RemainingProfile {
    points: Vec<(Span, Span)>,
}

impl RemainingProfile {
    /// Computes the no-interference profile of `task` under `mode`,
    /// with the optional deadline `od` (relative). Matches paper Fig. 3.
    ///
    /// # Panics
    ///
    /// Panics if `od` is inconsistent (`od < m` or `od + w > D`): Fig. 3's
    /// premise is that the task alone is schedulable.
    pub fn compute(task: &TaskSpec, od: Span, mode: SchedulingMode) -> RemainingProfile {
        let m = task.mandatory();
        let w = task.windup();
        let d = task.deadline();
        assert!(od >= m, "optional deadline before mandatory completion");
        assert!(od + w <= d, "wind-up cannot finish by the deadline");
        let points = match mode {
            SchedulingMode::General => vec![
                (Span::ZERO, m + w),
                (m + w, Span::ZERO),
                (d, Span::ZERO),
            ],
            SchedulingMode::SemiFixed => vec![
                (Span::ZERO, m),
                // Completes the mandatory part, then sleeps until OD with
                // zero remaining *released* work...
                (m, Span::ZERO),
                (od, Span::ZERO),
                // ...then the wind-up part is released at OD (a step,
                // expressed as a zero-length segment):
                (od, w),
                (od + w, Span::ZERO),
                (d, Span::ZERO),
            ],
        };
        RemainingProfile { points }
    }

    /// The breakpoints `(t, R(t))` in time order. Between breakpoints the
    /// remaining time interpolates linearly; a duplicated time point is a
    /// step (the wind-up release at OD).
    pub fn points(&self) -> &[(Span, Span)] {
        &self.points
    }

    /// The total time during which the processor is free for optional
    /// parts before the final wind-up completion (the plateau length; zero
    /// under general scheduling until `m + w`, then it is dead time after
    /// the decision).
    pub fn optional_window(&self) -> Span {
        // Zero-remaining stretches count only if real-time work is
        // released again afterwards (the wind-up step at OD): time after
        // the final completion is post-decision dead time, not a window.
        let mut window = Span::ZERO;
        let mut pending = Span::ZERO;
        for w in self.points.windows(2) {
            let (t0, r0) = w[0];
            let (t1, r1) = w[1];
            if r0.is_zero() && r1.is_zero() {
                pending += t1 - t0;
            } else if r1 > r0 {
                window += pending;
                pending = Span::ZERO;
            }
        }
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_task() -> TaskSpec {
        TaskSpec::builder("τi")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(250))
            .windup(Span::from_millis(250))
            .optional_parts(4, Span::from_secs(1))
            .build()
            .unwrap()
    }

    fn od() -> Span {
        Span::from_millis(750)
    }

    fn ms(v: u64) -> Span {
        Span::from_millis(v)
    }

    #[test]
    fn general_profile_shape() {
        let p = RemainingProfile::compute(&paper_task(), od(), SchedulingMode::General);
        // Fig. 3: starts at m + w, falls to zero at m + w, stays there.
        assert_eq!(
            p.points(),
            [
                (Span::ZERO, ms(500)),
                (ms(500), Span::ZERO),
                (ms(1000), Span::ZERO)
            ]
        );
    }

    #[test]
    fn semi_fixed_profile_shape() {
        let p = RemainingProfile::compute(&paper_task(), od(), SchedulingMode::SemiFixed);
        // Fig. 3: starts at m, zero at m, steps to w at OD, zero at OD + w.
        assert_eq!(
            p.points(),
            [
                (Span::ZERO, ms(250)),
                (ms(250), Span::ZERO),
                (od(), Span::ZERO),
                (od(), ms(250)),
                (ms(1000), Span::ZERO),
                (ms(1000), Span::ZERO),
            ]
        );
    }

    #[test]
    fn optional_window_only_under_semi_fixed() {
        let g = RemainingProfile::compute(&paper_task(), od(), SchedulingMode::General);
        let s = RemainingProfile::compute(&paper_task(), od(), SchedulingMode::SemiFixed);
        // Semi-fixed: [m, OD] = 500 ms of pre-decision optional window.
        assert_eq!(s.optional_window(), Span::from_millis(500));
        // General scheduling never sleeps before its (single) completion:
        // no pre-decision window exists.
        assert_eq!(g.optional_window(), Span::ZERO);
    }

    #[test]
    fn interpolation_is_monotone_within_segments() {
        // Time never runs backwards, and remaining work rises only at a
        // zero-length step: within a segment it can only fall.
        for mode in [SchedulingMode::General, SchedulingMode::SemiFixed] {
            let p = RemainingProfile::compute(&paper_task(), od(), mode);
            for w in p.points().windows(2) {
                let ((t0, r0), (t1, r1)) = (w[0], w[1]);
                assert!(t0 <= t1, "{mode:?}");
                assert!(t0 == t1 || r1 <= r0, "{mode:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "optional deadline before mandatory completion")]
    fn rejects_od_before_m() {
        let _ = RemainingProfile::compute(
            &paper_task(),
            Span::from_millis(100),
            SchedulingMode::SemiFixed,
        );
    }

    #[test]
    #[should_panic(expected = "wind-up cannot finish")]
    fn rejects_od_too_late() {
        let _ = RemainingProfile::compute(
            &paper_task(),
            Span::from_millis(900),
            SchedulingMode::SemiFixed,
        );
    }
}
