//! Assignment policies for parallel optional parts (paper §V-A, Fig. 8).
//!
//! Once a job's mandatory part completes, its `npᵢ` parallel optional parts
//! are placed on hardware threads. The paper examines three policies:
//!
//! * **One by One** — fill one SMT slot on every core, then the next slot
//!   on every core, … (spreads across cores first);
//! * **Two by Two** — fill two SMT slots on every core, then the next two,
//!   … ;
//! * **All by All** — fill *all* SMT slots of a core before moving to the
//!   next core (packs cores first).
//!
//! This module generalizes them as [`AssignmentPolicy::KByK`] with
//! `k ∈ {1, 2, smt_per_core}` and verifies the exact Fig. 8 placements for
//! 171 parts on the Xeon Phi.

use core::fmt;

use rtseed_model::{CoreId, HwThreadId, Topology};

/// How parallel optional parts are assigned to hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignmentPolicy {
    /// One slot per core per pass (paper's "One by One").
    OneByOne,
    /// Two slots per core per pass (paper's "Two by Two").
    TwoByTwo,
    /// All slots of a core before the next core (paper's "All by All").
    AllByAll,
    /// Generalized `k` slots per core per pass.
    KByK(u32),
}

impl AssignmentPolicy {
    /// The three policies the paper evaluates, in its order.
    pub const PAPER_POLICIES: [AssignmentPolicy; 3] = [
        AssignmentPolicy::OneByOne,
        AssignmentPolicy::TwoByTwo,
        AssignmentPolicy::AllByAll,
    ];

    /// The pass width `k` for `topology` (clamped to the SMT width).
    ///
    /// # Panics
    ///
    /// Panics if a [`AssignmentPolicy::KByK`] width is zero.
    pub fn stride(self, topology: &Topology) -> u32 {
        let smt = topology.smt_per_core();
        match self {
            AssignmentPolicy::OneByOne => 1.min(smt),
            AssignmentPolicy::TwoByTwo => 2.min(smt),
            AssignmentPolicy::AllByAll => smt,
            AssignmentPolicy::KByK(k) => {
                assert!(k > 0, "KByK stride must be positive");
                k.min(smt)
            }
        }
    }

    /// Places `np` parallel optional parts on `topology`, returning the
    /// hardware thread of each part in part order (`oᵢ,₀ … oᵢ,np−1`).
    ///
    /// If `np` exceeds the number of hardware threads, placement wraps
    /// around: parts then share hardware threads and are serialized by the
    /// FIFO queue at their (equal) priority.
    pub fn placements(self, topology: &Topology, np: usize) -> Vec<HwThreadId> {
        self.placements_or_granted(topology, np, None).collect()
    }

    /// Where the `np` optional parts of a placed task run, in part order
    /// and without a buffer: a federated task's parallel phase owns its
    /// `granted` core — every part runs there, preserving the analysed
    /// top-band isolation — and everyone else spreads by
    /// [`AssignmentPolicy::placements`].
    pub(crate) fn placements_or_granted<'t>(
        self,
        topology: &'t Topology,
        np: usize,
        granted: Option<HwThreadId>,
    ) -> impl Iterator<Item = HwThreadId> + 't {
        let k = self.stride(topology);
        let smt = topology.smt_per_core();
        let cores = topology.cores();
        // Hardware threads in policy order are passes of k slots over every
        // core (the last pass may be narrower), repeated once all are used:
        // the i-th is found without listing the ones before it.
        let pass_len = cores * k;
        (0..np).map(move |i| {
            granted.unwrap_or_else(|| {
                let j = (i % topology.hw_threads() as usize) as u32;
                let (pass, r) = (j / pass_len, j % pass_len);
                let width = k.min(smt - pass * k);
                topology.hw_thread(CoreId(r / width), pass * k + r % width)
            })
        })
    }

    /// Number of *distinct* cores used when placing `np` parts.
    pub fn distinct_cores(self, topology: &Topology, np: usize) -> usize {
        let mut used = vec![false; topology.cores() as usize];
        for hw in self.placements(topology, np) {
            used[topology.core_of(hw).index()] = true;
        }
        used.iter().filter(|&&u| u).count()
    }

    /// Per-core slot occupancy for `np` parts: `counts[c]` is the number of
    /// parts on core `c`. Used to verify the Fig. 8 placement maps.
    pub fn per_core_counts(self, topology: &Topology, np: usize) -> Vec<u32> {
        let mut counts = vec![0u32; topology.cores() as usize];
        for hw in self.placements(topology, np) {
            counts[topology.core_of(hw).index()] += 1;
        }
        counts
    }

    /// Short label ("one-by-one", "two-by-two", "all-by-all", "k-by-k(3)").
    pub fn label(self) -> String {
        match self {
            AssignmentPolicy::OneByOne => "one-by-one".into(),
            AssignmentPolicy::TwoByTwo => "two-by-two".into(),
            AssignmentPolicy::AllByAll => "all-by-all".into(),
            AssignmentPolicy::KByK(k) => format!("k-by-k({k})"),
        }
    }
}

impl fmt::Display for AssignmentPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phi() -> Topology {
        Topology::xeon_phi_3120a()
    }

    #[test]
    fn fig8a_one_by_one_171_parts() {
        // Fig. 8(a): three hardware threads assigned on every core C0–C56.
        let counts = AssignmentPolicy::OneByOne.per_core_counts(&phi(), 171);
        assert!(counts.iter().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // core index is part of the claim
    fn fig8b_two_by_two_171_parts() {
        // Fig. 8(b): four threads on C0–C27, three on C28, two on C29–C56.
        let counts = AssignmentPolicy::TwoByTwo.per_core_counts(&phi(), 171);
        for c in 0..=27 {
            assert_eq!(counts[c], 4, "core {c}");
        }
        assert_eq!(counts[28], 3);
        for c in 29..=56 {
            assert_eq!(counts[c], 2, "core {c}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // core index is part of the claim
    fn fig8c_all_by_all_171_parts() {
        // Fig. 8(c): four threads on C0–C41, three on C42, none on C43–C56.
        let counts = AssignmentPolicy::AllByAll.per_core_counts(&phi(), 171);
        for c in 0..=41 {
            assert_eq!(counts[c], 4, "core {c}");
        }
        assert_eq!(counts[42], 3);
        for c in 43..=56 {
            assert_eq!(counts[c], 0, "core {c}");
        }
    }

    #[test]
    fn full_machine_all_policies_identical_footprint() {
        // At np = 228 every policy fills all threads (placement *order*
        // still differs).
        for p in AssignmentPolicy::PAPER_POLICIES {
            let counts = p.per_core_counts(&phi(), 228);
            assert!(counts.iter().all(|&c| c == 4), "{p}: {counts:?}");
        }
    }

    #[test]
    fn placements_are_unique_until_capacity() {
        for p in AssignmentPolicy::PAPER_POLICIES {
            let placed = p.placements(&phi(), 228);
            let mut seen = std::collections::HashSet::new();
            assert!(placed.iter().all(|h| seen.insert(*h)), "{p}");
        }
    }

    #[test]
    fn wraps_beyond_capacity() {
        let placed = AssignmentPolicy::OneByOne.placements(&phi(), 230);
        assert_eq!(placed.len(), 230);
        assert_eq!(placed[228], placed[0]);
        assert_eq!(placed[229], placed[1]);
    }

    #[test]
    fn distinct_cores_ordering() {
        // Spreading policy touches more cores than packing policy at equal
        // np (np = 57: OneByOne uses 57 cores, AllByAll ⌈57/4⌉ = 15).
        let t = phi();
        assert_eq!(AssignmentPolicy::OneByOne.distinct_cores(&t, 57), 57);
        assert_eq!(AssignmentPolicy::AllByAll.distinct_cores(&t, 57), 15);
        assert_eq!(AssignmentPolicy::TwoByTwo.distinct_cores(&t, 57), 29);
    }

    #[test]
    fn core_transitions_rank_policies() {
        // Placement order is the locality mechanism: counting the core hops
        // between consecutive parts, OneByOne > TwoByTwo > AllByAll at any
        // np that spans multiple cores.
        let t = phi();
        let hops = |p: AssignmentPolicy, np| {
            let placed = p.placements(&t, np);
            placed
                .windows(2)
                .filter(|w| t.core_of(w[0]) != t.core_of(w[1]))
                .count()
        };
        for np in [32usize, 57, 114, 171, 228] {
            let one = hops(AssignmentPolicy::OneByOne, np);
            let two = hops(AssignmentPolicy::TwoByTwo, np);
            let all = hops(AssignmentPolicy::AllByAll, np);
            assert!(one >= two && two >= all, "np={np}: {one} {two} {all}");
            assert!(one > all, "np={np}");
        }
        // Exact values at full occupancy.
        assert_eq!(hops(AssignmentPolicy::OneByOne, 228), 227);
        assert_eq!(hops(AssignmentPolicy::AllByAll, 228), 56);
    }

    #[test]
    fn one_by_one_first_pass_is_slot_zero() {
        let t = phi();
        let placed = AssignmentPolicy::OneByOne.placements(&t, 57);
        for (i, hw) in placed.iter().enumerate() {
            assert_eq!(t.core_of(*hw), CoreId(i as u32));
            assert_eq!(t.slot_of(*hw), 0);
        }
    }

    #[test]
    fn kbyk_generalizes() {
        let t = phi();
        assert_eq!(
            AssignmentPolicy::KByK(1).placements(&t, 171),
            AssignmentPolicy::OneByOne.placements(&t, 171)
        );
        assert_eq!(
            AssignmentPolicy::KByK(4).placements(&t, 171),
            AssignmentPolicy::AllByAll.placements(&t, 171)
        );
        // k larger than SMT clamps.
        assert_eq!(
            AssignmentPolicy::KByK(9).placements(&t, 171),
            AssignmentPolicy::AllByAll.placements(&t, 171)
        );
        // Odd k covers the machine exactly once too.
        let p3 = AssignmentPolicy::KByK(3).placements(&t, 228);
        let unique: std::collections::HashSet<_> = p3.iter().collect();
        assert_eq!(unique.len(), 228);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn kbyk_zero_rejected() {
        let _ = AssignmentPolicy::KByK(0).stride(&phi());
    }

    #[test]
    fn smt1_topology_collapses_policies() {
        let t = Topology::new(8, 1).unwrap();
        assert_eq!(
            AssignmentPolicy::OneByOne.placements(&t, 8),
            AssignmentPolicy::AllByAll.placements(&t, 8)
        );
    }

    #[test]
    fn labels() {
        assert_eq!(AssignmentPolicy::OneByOne.to_string(), "one-by-one");
        assert_eq!(AssignmentPolicy::KByK(3).to_string(), "k-by-k(3)");
    }
}
