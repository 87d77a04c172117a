//! Background loads of the paper's overhead measurements (§V-B).
//!
//! * **NoLoad** — no background tasks;
//! * **CpuLoad** — an infinite-loop task on every hardware thread (heavy
//!   branch-unit pressure, no memory traffic);
//! * **CpuMemoryLoad** — 512 KiB (one L2's worth) read/write loops on every
//!   hardware thread, polluting L1/L2 so real work misses to memory.
//!
//! In the simulator a load is a *machine condition* consulted by the
//! overhead model rather than actual spinning threads: it determines SMT
//! sibling occupancy and cache pollution, the two mechanisms the paper
//! identifies as driving its measured overhead differences.

use core::fmt;

/// The background-load condition of an overhead experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackgroundLoad {
    /// No background tasks are executed.
    #[default]
    NoLoad,
    /// Infinite CPU-bound loops on all hardware threads.
    CpuLoad,
    /// L2-sized (512 KiB) read/write loops on all hardware threads,
    /// polluting the caches.
    CpuMemoryLoad,
}

impl BackgroundLoad {
    /// All three conditions in the paper's presentation order.
    pub const ALL: [BackgroundLoad; 3] = [
        BackgroundLoad::NoLoad,
        BackgroundLoad::CpuLoad,
        BackgroundLoad::CpuMemoryLoad,
    ];

    /// `true` when background tasks occupy every hardware thread (any load
    /// other than [`BackgroundLoad::NoLoad`]): SMT siblings of real-time
    /// threads are then always busy.
    #[inline]
    pub const fn occupies_siblings(self) -> bool {
        !matches!(self, BackgroundLoad::NoLoad)
    }

    /// `true` when the load pollutes the caches so that real work misses
    /// L1/L2 (only [`BackgroundLoad::CpuMemoryLoad`]).
    #[inline]
    pub const fn pollutes_cache(self) -> bool {
        matches!(self, BackgroundLoad::CpuMemoryLoad)
    }

    /// `true` when the load saturates the per-core branch units (only
    /// [`BackgroundLoad::CpuLoad`] — the paper's explanation for Fig. 12's
    /// inversion, where `pthread_cond_signal`'s branch-heavy path suffers
    /// *more* under CpuLoad than under CpuMemoryLoad).
    #[inline]
    pub const fn saturates_branch_units(self) -> bool {
        matches!(self, BackgroundLoad::CpuLoad)
    }

    /// Short label used in harness output ("no-load", "cpu", "cpu-memory").
    pub const fn label(self) -> &'static str {
        match self {
            BackgroundLoad::NoLoad => "no-load",
            BackgroundLoad::CpuLoad => "cpu",
            BackgroundLoad::CpuMemoryLoad => "cpu-memory",
        }
    }
}

impl fmt::Display for BackgroundLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_three_conditions() {
        assert_eq!(BackgroundLoad::ALL.len(), 3);
        assert_eq!(BackgroundLoad::ALL[0], BackgroundLoad::NoLoad);
    }

    #[test]
    fn mechanism_flags() {
        assert!(!BackgroundLoad::NoLoad.occupies_siblings());
        assert!(BackgroundLoad::CpuLoad.occupies_siblings());
        assert!(BackgroundLoad::CpuMemoryLoad.occupies_siblings());

        assert!(!BackgroundLoad::NoLoad.pollutes_cache());
        assert!(!BackgroundLoad::CpuLoad.pollutes_cache());
        assert!(BackgroundLoad::CpuMemoryLoad.pollutes_cache());

        assert!(BackgroundLoad::CpuLoad.saturates_branch_units());
        assert!(!BackgroundLoad::CpuMemoryLoad.saturates_branch_units());
    }

    #[test]
    fn default_is_no_load() {
        assert_eq!(BackgroundLoad::default(), BackgroundLoad::NoLoad);
    }

    #[test]
    fn labels() {
        assert_eq!(BackgroundLoad::NoLoad.to_string(), "no-load");
        assert_eq!(BackgroundLoad::CpuLoad.to_string(), "cpu");
        assert_eq!(BackgroundLoad::CpuMemoryLoad.to_string(), "cpu-memory");
    }
}
