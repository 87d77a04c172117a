//! Identifier newtypes (C-NEWTYPE): tasks, jobs, parts, cores, hardware
//! threads, and SCHED_FIFO priorities.

use core::fmt;

/// Index of a task within a [`crate::TaskSet`] (0-based, RM rank order is
/// assigned separately by the analysis crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0 + 1)
    }
}

/// A job: the `seq`-th instance of task `task` (paper §II-A: "each instance
/// of a task is called a job").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId {
    /// The owning task.
    pub task: TaskId,
    /// 0-based job sequence number.
    pub seq: u64,
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.task, self.seq)
    }
}

/// Index of one parallel optional part within a job (`k` in `oᵢ,ₖ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartId(pub u32);

impl PartId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o[{}]", self.0)
    }
}

/// A physical core (C0–C56 on the Xeon Phi 3120A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

impl CoreId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A hardware thread (SMT sibling). On the Xeon Phi 3120A there are four per
/// core, giving hw-thread ids 0–227.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HwThreadId(pub u32);

impl HwThreadId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HwThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

/// A tenant: one client of the serving layer, owning a submitted task set.
///
/// Tenant ids are assigned by the `SessionManager` in submission order and
/// never reused within a session, so a rejected submission still gets a
/// distinct id for audit trails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// A SCHED_FIFO priority level in `1..=99` (larger is higher, paper §IV-B).
///
/// RT-Seed partitions the range into bands:
///
/// * **HPQ** — level 99, reserved for the highest-priority task
///   (e.g. RMUS separation, footnote 1 of the paper);
/// * **RTQ** — levels 50–98, mandatory/wind-up threads;
/// * **NRTQ** — levels 1–49, parallel optional threads
///   (always `mandatory − 49`).
///
/// # Examples
///
/// ```
/// use rtseed_model::Priority;
/// let mandatory = Priority::new(90).unwrap();
/// let optional = mandatory.optional_counterpart().unwrap();
/// assert_eq!(optional.level(), 41);
/// assert!(mandatory > optional);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(u8);

/// Error returned when a priority level is outside `1..=99` or outside the
/// band an operation requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityError {
    level: u8,
}

impl fmt::Display for PriorityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SCHED_FIFO priority level {}", self.level)
    }
}

impl std::error::Error for PriorityError {}

impl Priority {
    /// The reserved highest-priority level (HPQ).
    pub const HPQ: Priority = Priority(99);
    /// Highest mandatory-band level.
    pub const RTQ_MAX: Priority = Priority(98);
    /// Lowest mandatory-band level.
    pub const RTQ_MIN: Priority = Priority(50);
    /// Highest optional-band level.
    pub const NRTQ_MAX: Priority = Priority(49);
    /// Lowest optional-band level.
    pub const NRTQ_MIN: Priority = Priority(1);
    /// Fixed distance between a mandatory thread and its optional threads
    /// (paper §IV-B: "the difference ... is 49").
    pub const MANDATORY_OPTIONAL_GAP: u8 = 49;

    /// Creates a priority, validating `1 ≤ level ≤ 99`.
    ///
    /// # Errors
    ///
    /// Returns [`PriorityError`] if the level is 0 or above 99.
    pub const fn new(level: u8) -> Result<Priority, PriorityError> {
        if level >= 1 && level <= 99 {
            Ok(Priority(level))
        } else {
            Err(PriorityError { level })
        }
    }

    /// The raw level in `1..=99`.
    #[inline]
    pub const fn level(self) -> u8 {
        self.0
    }

    /// `true` if this is the reserved HPQ level 99.
    #[inline]
    pub const fn is_hpq(self) -> bool {
        self.0 == 99
    }

    /// `true` if the level lies in the mandatory band 50–98.
    #[inline]
    pub const fn is_mandatory_band(self) -> bool {
        self.0 >= 50 && self.0 <= 98
    }

    /// `true` if the level lies in the optional band 1–49.
    #[inline]
    pub const fn is_optional_band(self) -> bool {
        self.0 >= 1 && self.0 <= 49
    }

    /// The optional-band priority paired with this mandatory priority
    /// (paper example: mandatory 90 → optional 41).
    ///
    /// # Errors
    ///
    /// Returns [`PriorityError`] if `self` is not in the mandatory band.
    pub const fn optional_counterpart(self) -> Result<Priority, PriorityError> {
        if self.is_mandatory_band() {
            Ok(Priority(self.0 - Self::MANDATORY_OPTIONAL_GAP))
        } else {
            Err(PriorityError { level: self.0 })
        }
    }

    /// The mandatory-band priority paired with this optional priority.
    ///
    /// # Errors
    ///
    /// Returns [`PriorityError`] if `self` is not in the optional band.
    pub const fn mandatory_counterpart(self) -> Result<Priority, PriorityError> {
        if self.is_optional_band() {
            Ok(Priority(self.0 + Self::MANDATORY_OPTIONAL_GAP))
        } else {
            Err(PriorityError { level: self.0 })
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_validation() {
        assert!(Priority::new(0).is_err());
        assert!(Priority::new(100).is_err());
        assert_eq!(Priority::new(1).unwrap().level(), 1);
        assert_eq!(Priority::new(99).unwrap(), Priority::HPQ);
    }

    #[test]
    fn priority_bands_partition_the_range() {
        for level in 1..=99u8 {
            let p = Priority::new(level).unwrap();
            let bands =
                p.is_hpq() as u8 + p.is_mandatory_band() as u8 + p.is_optional_band() as u8;
            assert_eq!(bands, 1, "level {level} must be in exactly one band");
        }
    }

    #[test]
    fn paper_example_mandatory_90_optional_41() {
        let m = Priority::new(90).unwrap();
        assert_eq!(m.optional_counterpart().unwrap().level(), 41);
    }

    #[test]
    fn counterparts_roundtrip() {
        for level in 50..=98u8 {
            let m = Priority::new(level).unwrap();
            let o = m.optional_counterpart().unwrap();
            assert!(o.is_optional_band());
            assert_eq!(o.mandatory_counterpart().unwrap(), m);
        }
    }

    #[test]
    fn counterpart_rejects_wrong_band() {
        assert!(Priority::HPQ.optional_counterpart().is_err());
        assert!(Priority::new(10).unwrap().optional_counterpart().is_err());
        assert!(Priority::new(60).unwrap().mandatory_counterpart().is_err());
    }

    #[test]
    fn ordering_follows_levels() {
        assert!(Priority::HPQ > Priority::RTQ_MAX);
        assert!(Priority::RTQ_MIN > Priority::NRTQ_MAX);
        assert!(Priority::NRTQ_MAX > Priority::NRTQ_MIN);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(0).to_string(), "τ1");
        assert_eq!(
            JobId {
                task: TaskId(0),
                seq: 3
            }
            .to_string(),
            "τ1#3"
        );
        assert_eq!(CoreId(56).to_string(), "C56");
        assert_eq!(HwThreadId(227).to_string(), "H227");
        assert_eq!(PartId(2).to_string(), "o[2]");
        assert_eq!(Priority::new(50).unwrap().to_string(), "prio50");
        assert_eq!(
            Priority::new(0).unwrap_err().to_string(),
            "invalid SCHED_FIFO priority level 0"
        );
    }
}
