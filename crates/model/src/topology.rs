//! Many-core processor topologies (cores × SMT hardware threads).
//!
//! The paper evaluates on an Intel Xeon Phi 3120A: 57 cores with four
//! hardware threads each (228 hw threads), 512 KiB of L2 per core.
//! Hardware-thread numbering follows the paper's Fig. 8: hw thread `h`
//! belongs to core `h % cores` for the *slot-major* convention used when
//! assigning "one by one" (first one thread on every core, then the second
//! thread on every core, ...). We instead store the conventional
//! core-major mapping (`core = h / threads_per_core`) and expose helpers
//! for both directions; the assignment policies in `rtseed` work in terms
//! of `(core, slot)` pairs so the numbering convention cannot leak bugs.

use core::fmt;

use crate::ids::{CoreId, HwThreadId};

/// A homogeneous multi-/many-core topology.
///
/// # Examples
///
/// ```
/// use rtseed_model::Topology;
/// let phi = Topology::xeon_phi_3120a();
/// assert_eq!(phi.cores(), 57);
/// assert_eq!(phi.smt_per_core(), 4);
/// assert_eq!(phi.hw_threads(), 228);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    cores: u32,
    smt_per_core: u32,
}

/// Error constructing a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyError;

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topology requires at least one core and one SMT thread per core")
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Creates a topology with `cores` physical cores and `smt_per_core`
    /// hardware threads per core.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if either dimension is zero.
    pub const fn new(cores: u32, smt_per_core: u32) -> Result<Topology, TopologyError> {
        if cores == 0 || smt_per_core == 0 {
            return Err(TopologyError);
        }
        Ok(Topology {
            cores,
            smt_per_core,
        })
    }

    /// The Intel Xeon Phi 3120A used in the paper's evaluation:
    /// 57 cores × 4 hardware threads, 512 KiB L2 per core.
    pub const fn xeon_phi_3120a() -> Topology {
        Topology {
            cores: 57,
            smt_per_core: 4,
        }
    }

    /// A small quad-core topology (2-way SMT) convenient for tests.
    pub const fn quad_core_smt2() -> Topology {
        Topology {
            cores: 4,
            smt_per_core: 2,
        }
    }

    /// A uniprocessor topology.
    pub const fn uniprocessor() -> Topology {
        Topology {
            cores: 1,
            smt_per_core: 1,
        }
    }

    /// Number of physical cores.
    #[inline]
    pub const fn cores(&self) -> u32 {
        self.cores
    }

    /// Hardware threads per core.
    #[inline]
    pub const fn smt_per_core(&self) -> u32 {
        self.smt_per_core
    }

    /// Total hardware threads `M`.
    #[inline]
    pub const fn hw_threads(&self) -> u32 {
        self.cores * self.smt_per_core
    }

    /// The core owning hardware thread `h` (core-major numbering).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    #[inline]
    pub fn core_of(&self, h: HwThreadId) -> CoreId {
        assert!(h.0 < self.hw_threads(), "hw thread {h} out of range");
        CoreId(h.0 / self.smt_per_core)
    }

    /// The SMT slot (0-based sibling index) of hardware thread `h` within
    /// its core.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    #[inline]
    pub fn slot_of(&self, h: HwThreadId) -> u32 {
        assert!(h.0 < self.hw_threads(), "hw thread {h} out of range");
        h.0 % self.smt_per_core
    }

    /// The hardware thread at `(core, slot)`.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `slot` is out of range.
    #[inline]
    pub fn hw_thread(&self, core: CoreId, slot: u32) -> HwThreadId {
        assert!(core.0 < self.cores, "core {core} out of range");
        assert!(slot < self.smt_per_core, "SMT slot {slot} out of range");
        HwThreadId(core.0 * self.smt_per_core + slot)
    }

    /// Iterates over all hardware threads in id order.
    pub fn hw_thread_ids(&self) -> impl Iterator<Item = HwThreadId> + use<> {
        (0..self.hw_threads()).map(HwThreadId)
    }

    /// The SMT siblings sharing a core with `h` (including `h` itself).
    pub fn siblings(&self, h: HwThreadId) -> impl Iterator<Item = HwThreadId> + use<> {
        let core = self.core_of(h);
        let base = core.0 * self.smt_per_core;
        (base..base + self.smt_per_core).map(HwThreadId)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores x {} SMT = {} hw threads",
            self.cores,
            self.smt_per_core,
            self.hw_threads()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_phi_dimensions_match_paper() {
        let t = Topology::xeon_phi_3120a();
        assert_eq!(t.cores(), 57);
        assert_eq!(t.smt_per_core(), 4);
        assert_eq!(t.hw_threads(), 228);
    }

    #[test]
    fn new_validates() {
        assert_eq!(Topology::new(0, 4).unwrap_err(), TopologyError);
        assert_eq!(Topology::new(4, 0).unwrap_err(), TopologyError);
        assert!(Topology::new(4, 2).is_ok());
        assert_eq!(
            TopologyError.to_string(),
            "topology requires at least one core and one SMT thread per core"
        );
    }

    #[test]
    fn core_slot_roundtrip() {
        let t = Topology::xeon_phi_3120a();
        for h in t.hw_thread_ids() {
            let core = t.core_of(h);
            let slot = t.slot_of(h);
            assert_eq!(t.hw_thread(core, slot), h);
        }
    }

    #[test]
    fn siblings_share_core() {
        let t = Topology::quad_core_smt2();
        let sibs: Vec<_> = t.siblings(HwThreadId(3)).collect();
        assert_eq!(sibs, vec![HwThreadId(2), HwThreadId(3)]);
        for s in sibs {
            assert_eq!(t.core_of(s), CoreId(1));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_of_rejects_out_of_range() {
        let _ = Topology::uniprocessor().core_of(HwThreadId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hw_thread_rejects_bad_slot() {
        let _ = Topology::quad_core_smt2().hw_thread(CoreId(0), 2);
    }

    #[test]
    fn iterators_cover_everything() {
        let t = Topology::quad_core_smt2();
        assert_eq!(t.hw_thread_ids().count(), 8);
    }

    #[test]
    fn display_summarizes() {
        assert_eq!(
            Topology::xeon_phi_3120a().to_string(),
            "57 cores x 4 SMT = 228 hw threads"
        );
    }
}
