//! Termination mechanisms for parallel optional parts (paper §IV-D,
//! Table I).
//!
//! The paper compares three user-space implementations of terminating an
//! optional part when its optional-deadline timer fires:
//!
//! | Implementation | Any-time termination | Signal-mask restoration |
//! |---|---|---|
//! | `sigsetjmp`/`siglongjmp` + one-shot timer | ✓ | ✓ |
//! | Periodic check (no timer) | ✗ | (unnecessary) |
//! | C++ `try`-`catch` + one-shot timer | ✓ | ✗ |
//!
//! The `try`-`catch` defect is subtle: the handler longjmp-less unwind does
//! not restore the signal mask, so "the timer interrupt of the next job
//! does not occur" — every later job's optional parts then run unchecked.
//!
//! **Rust substitution note (DESIGN.md).** Safe Rust cannot `siglongjmp`
//! across frames (it would skip destructors), so:
//!
//! * the **simulator** backend models `SigjmpTimer` exactly (termination at
//!   the deadline, timer always re-armed),
//! * the **native** backend offers [`TerminationMode::PeriodicCheck`]
//!   (cooperative checkpoints) and [`TerminationMode::UnwindCatch`]
//!   (a panic-unwind raised at a checkpoint, the `try`-`catch` analogue —
//!   implemented correctly, without the signal-mask defect), and
//! * the simulator can *inject* the paper's `try`-`catch` defect
//!   ([`TerminationMode::UnwindCatch`] with
//!   [`TerminationMode::models_signal_mask_defect`]) to reproduce Table I's
//!   consequences behaviorally.

use core::fmt;

use rtseed_model::{Span, Time};

/// How optional parts are terminated at the optional deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminationMode {
    /// `sigsetjmp`/`siglongjmp` with a one-shot optional-deadline timer
    /// (the paper's recommended mechanism, Fig. 7): terminates at any
    /// time and restores the signal mask.
    SigjmpTimer,
    /// Cooperative periodic checking of the deadline without a timer:
    /// terminates only at the next checkpoint, degrading QoS-to-deadline
    /// precision by up to `interval`.
    PeriodicCheck {
        /// Worst-case distance between two checkpoints.
        interval: Span,
    },
    /// `try`-`catch` (native: `panic::catch_unwind`) with a one-shot
    /// timer: terminates at any time but — as the paper observes for C++ —
    /// does not restore the signal mask, so the *next* job's timer never
    /// fires.
    UnwindCatch,
}

impl TerminationMode {
    /// `true` if optional parts can be cut at any instruction (Table I,
    /// column "Any Time Termination").
    pub const fn any_time_termination(self) -> bool {
        matches!(
            self,
            TerminationMode::SigjmpTimer | TerminationMode::UnwindCatch
        )
    }

    /// Table I, column "Signal Mask Restoration": `Some(true)` restored,
    /// `Some(false)` *not* restored (the `try`-`catch` defect), `None`
    /// unnecessary (no timer signal is used at all).
    pub const fn restores_signal_mask(self) -> Option<bool> {
        match self {
            TerminationMode::SigjmpTimer => Some(true),
            TerminationMode::PeriodicCheck { .. } => None,
            TerminationMode::UnwindCatch => Some(false),
        }
    }

    /// `true` if the simulator should model the broken-timer consequence
    /// of a non-restored signal mask (all jobs after the first lose their
    /// optional-deadline timer).
    pub const fn models_signal_mask_defect(self) -> bool {
        matches!(self.restores_signal_mask(), Some(false))
    }

    /// The extra delay past the optional deadline before a *running*
    /// optional part that started at `started` actually terminates when
    /// the deadline fires at `od`.
    ///
    /// * any-time modes: zero;
    /// * periodic check: the remainder until the part's next checkpoint
    ///   (checkpoints every `interval` from its start).
    pub fn termination_lag(self, started: Time, od: Time) -> Span {
        match self {
            TerminationMode::SigjmpTimer | TerminationMode::UnwindCatch => Span::ZERO,
            TerminationMode::PeriodicCheck { interval } => {
                if interval.is_zero() {
                    return Span::ZERO;
                }
                let ran = od.saturating_elapsed_since(started);
                let into = ran % interval;
                if into.is_zero() {
                    Span::ZERO
                } else {
                    interval - into
                }
            }
        }
    }

    /// Short label for harness output.
    pub const fn label(self) -> &'static str {
        match self {
            TerminationMode::SigjmpTimer => "sigsetjmp/siglongjmp",
            TerminationMode::PeriodicCheck { .. } => "periodic-check",
            TerminationMode::UnwindCatch => "try-catch",
        }
    }
}

impl fmt::Display for TerminationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerminationMode::PeriodicCheck { interval } => {
                write!(f, "periodic-check({interval})")
            }
            other => f.write_str(other.label()),
        }
    }
}

/// Renders the paper's Table I as text (printed by the `paperfigs` bench
/// above its `table1` rows).
pub fn render_table1() -> String {
    let rows = [
        TerminationMode::SigjmpTimer,
        TerminationMode::PeriodicCheck {
            interval: Span::from_millis(1),
        },
        TerminationMode::UnwindCatch,
    ];
    let mut out = String::from(
        "Implementation            | Any Time Termination | Signal Mask Restoration\n\
         --------------------------+----------------------+------------------------\n",
    );
    for mode in rows {
        let any = if mode.any_time_termination() { "X" } else { "" };
        let mask = match mode.restores_signal_mask() {
            Some(true) => "X",
            Some(false) => "",
            None => "(unnecessary)",
        };
        out.push_str(&format!("{:<26}| {:<21}| {}\n", mode.label(), any, mask));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matrix() {
        assert!(TerminationMode::SigjmpTimer.any_time_termination());
        assert_eq!(
            TerminationMode::SigjmpTimer.restores_signal_mask(),
            Some(true)
        );

        let pc = TerminationMode::PeriodicCheck {
            interval: Span::from_millis(1),
        };
        assert!(!pc.any_time_termination());
        assert_eq!(pc.restores_signal_mask(), None);

        assert!(TerminationMode::UnwindCatch.any_time_termination());
        assert_eq!(
            TerminationMode::UnwindCatch.restores_signal_mask(),
            Some(false)
        );
        assert!(TerminationMode::UnwindCatch.models_signal_mask_defect());
        assert!(!TerminationMode::SigjmpTimer.models_signal_mask_defect());
    }

    #[test]
    fn any_time_modes_have_zero_lag() {
        let s = Time::from_nanos(100);
        let od = Time::from_nanos(10_500);
        assert_eq!(
            TerminationMode::SigjmpTimer.termination_lag(s, od),
            Span::ZERO
        );
        assert_eq!(
            TerminationMode::UnwindCatch.termination_lag(s, od),
            Span::ZERO
        );
    }

    #[test]
    fn periodic_check_lag_rounds_to_next_checkpoint() {
        let mode = TerminationMode::PeriodicCheck {
            interval: Span::from_millis(10),
        };
        let start = Time::ZERO;
        // Ran 25 ms when OD fires → next checkpoint at 30 ms → lag 5 ms.
        let od = Time::ZERO + Span::from_millis(25);
        assert_eq!(mode.termination_lag(start, od), Span::from_millis(5));
        // Exactly on a checkpoint → no lag.
        let od2 = Time::ZERO + Span::from_millis(30);
        assert_eq!(mode.termination_lag(start, od2), Span::ZERO);
        // OD before the part even started → checkpoint at start: no lag.
        let late_start = Time::ZERO + Span::from_millis(100);
        assert_eq!(mode.termination_lag(late_start, od2), Span::ZERO);
    }

    #[test]
    fn zero_interval_is_continuous_checking() {
        let mode = TerminationMode::PeriodicCheck {
            interval: Span::ZERO,
        };
        assert_eq!(
            mode.termination_lag(Time::ZERO, Time::from_nanos(123)),
            Span::ZERO
        );
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(TerminationMode::SigjmpTimer.to_string(), "sigsetjmp/siglongjmp");
        assert_eq!(
            TerminationMode::PeriodicCheck {
                interval: Span::from_millis(1)
            }
            .to_string(),
            "periodic-check(1ms)"
        );
        assert_eq!(TerminationMode::UnwindCatch.to_string(), "try-catch");
    }

    #[test]
    fn table_render_matches_paper_shape() {
        let t = render_table1();
        assert!(t.contains("sigsetjmp/siglongjmp"), "{t}");
        assert!(t.contains("periodic-check"), "{t}");
        assert!(t.contains("try-catch"), "{t}");
        assert!(t.contains("(unnecessary)"), "{t}");
        // Exactly the sigsetjmp row has both check marks.
        let sig_row = t.lines().find(|l| l.starts_with("sigsetjmp")).unwrap();
        assert_eq!(sig_row.matches('X').count(), 2, "{sig_row}");
        let tc_row = t.lines().find(|l| l.starts_with("try-catch")).unwrap();
        assert_eq!(tc_row.matches('X').count(), 1, "{tc_row}");
    }
}
