//! Calibrated overhead/contention model producing the four middleware
//! overheads of the paper's Fig. 9:
//!
//! * **Δm** — release → beginning of the mandatory part,
//! * **Δb** — signalling all parallel optional threads
//!   (`pthread_cond_signal` loop; O(npᵢ), paper §V-B),
//! * **Δs** — switching the mandatory thread to the first optional thread,
//! * **Δe** — optional deadline → beginning of the wind-up part (timer
//!   interrupt handling + `siglongjmp` stack restore + wake-up signal;
//!   O(npᵢ) and the largest of the four, paper §V-B).
//!
//! Every cost is computed from *mechanistic inputs* — the number of
//! parallel optional parts, whether a termination hop crosses cores, SMT
//! sibling occupancy and cache pollution from the background load — with
//! constants in [`Calibration`] set from the magnitudes on the paper's
//! figure axes. EXPERIMENTS.md verifies the resulting *shapes* (constant
//! vs linear growth, load orderings, policy orderings), which are what the
//! model is accountable for; absolute values are calibration.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtseed_model::{Span, Topology};

use crate::load::BackgroundLoad;

/// Which of the four measured overheads a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverheadKind {
    /// Δm: release time → beginning of the mandatory part.
    BeginMandatory,
    /// Δb: signalling all parallel optional threads.
    BeginOptional,
    /// Δs: switching the mandatory thread to the optional thread.
    SwitchToOptional,
    /// Δe: optional deadline → beginning of the wind-up part.
    EndOptional,
}

impl OverheadKind {
    /// All four kinds in the paper's Fig. 9 order.
    pub const ALL: [OverheadKind; 4] = [
        OverheadKind::BeginMandatory,
        OverheadKind::BeginOptional,
        OverheadKind::SwitchToOptional,
        OverheadKind::EndOptional,
    ];

    /// The paper's symbol for the overhead ("Δm", "Δb", "Δs", "Δe").
    pub const fn symbol(self) -> &'static str {
        match self {
            OverheadKind::BeginMandatory => "Δm",
            OverheadKind::BeginOptional => "Δb",
            OverheadKind::SwitchToOptional => "Δs",
            OverheadKind::EndOptional => "Δe",
        }
    }
}

/// One measured overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadSample {
    /// Which overhead was measured.
    pub kind: OverheadKind,
    /// The measured span.
    pub value: Span,
}

/// Calibration constants (nanoseconds unless noted). Defaults are set so
/// that the simulated Xeon Phi reproduces the magnitudes on the axes of the
/// paper's Figs. 10–13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Δm base: timer wake-up + SCHED_FIFO pick with an idle machine.
    pub begin_mandatory_ns: u64,
    /// Δm multiplier when SMT siblings run background work.
    pub begin_mandatory_sibling_factor: f64,
    /// Δm additional multiplier when caches are polluted.
    pub begin_mandatory_cache_factor: f64,

    /// Δb: one `pthread_cond_signal` to a waiting optional thread.
    pub signal_ns: u64,
    /// Δb multiplier under branch-unit saturation (CpuLoad). The paper
    /// observes Δb is *worse* under CpuLoad than CpuMemoryLoad because the
    /// signal path is branch-heavy.
    pub signal_branch_factor: f64,
    /// Δb multiplier under cache pollution (CpuMemoryLoad).
    pub signal_cache_factor: f64,

    /// Δs base: one context switch on an idle core.
    pub switch_ns: u64,
    /// Δs per-optional-part slope on an idle machine (run-queue scan and
    /// sibling start-up grow with np).
    pub switch_per_part_ns: u64,
    /// Δs surge amplitude as the machine approaches full SMT occupancy
    /// (paper: "with 228 parallel optional parts ... a dramatic increase").
    pub switch_surge_ns: u64,
    /// Exponent of the surge ((np / max_np)^e).
    pub switch_surge_exponent: f64,
    /// Δs fixed value under CpuLoad (approximately constant, Fig. 11b).
    pub switch_loaded_cpu_ns: u64,
    /// Δs fixed value under CpuMemoryLoad (approximately constant, Fig. 11c).
    pub switch_loaded_mem_ns: u64,

    /// Δe: per-part termination (timer interrupt + `siglongjmp` restore +
    /// completion bookkeeping) on an idle machine.
    pub end_part_ns: u64,
    /// Δe per-part multiplier under CpuLoad.
    pub end_cpu_factor: f64,
    /// Δe per-part multiplier under CpuMemoryLoad (highest: the restore
    /// path is memory-bound, Fig. 13c).
    pub end_mem_factor: f64,
    /// Δe penalty when consecutive terminations hop between cores
    /// (cache-line transfer of task state), idle machine.
    pub end_cross_core_ns: u64,
    /// Cross-core penalty multiplier under CpuLoad.
    pub end_cross_core_cpu_factor: f64,
    /// Cross-core penalty multiplier under CpuMemoryLoad.
    pub end_cross_core_mem_factor: f64,

    /// Relative measurement jitter (uniform ±fraction), deterministic in
    /// the model's seed.
    pub jitter: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            begin_mandatory_ns: 50_000,            // ~50 µs   (Fig. 10a)
            begin_mandatory_sibling_factor: 3.0,   // ~150 µs  (Fig. 10b)
            begin_mandatory_cache_factor: 1.67,    // ~250 µs  (Fig. 10c)

            signal_ns: 26_000,                     // 228 × 26 µs ≈ 5.9 ms (Fig. 12a)
            signal_branch_factor: 1.75,            // ≈ 10.4 ms (Fig. 12b)
            signal_cache_factor: 1.35,             // ≈ 8.0 ms  (Fig. 12c)

            switch_ns: 10_000,
            switch_per_part_ns: 150,               // +34 µs at np = 228
            switch_surge_ns: 45_000,               // Fig. 11a's surge at 228
            switch_surge_exponent: 6.0,
            switch_loaded_cpu_ns: 45_000,          // flat ~45 µs (Fig. 11b)
            switch_loaded_mem_ns: 52_000,          // flat ~52 µs (Fig. 11c)

            end_part_ns: 110_000,                  // 228 × 110 µs ≈ 25 ms (Fig. 13a)
            end_cpu_factor: 1.30,                  // ≈ 33 ms base (Fig. 13b)
            end_mem_factor: 1.75,                  // ≈ 44 ms base (Fig. 13c)
            end_cross_core_ns: 5_000,              // policies ≈ equal unloaded
            end_cross_core_cpu_factor: 8.0,        // 40 µs/hop: OneByOne worst
            end_cross_core_mem_factor: 10.0,       // 50 µs/hop

            jitter: 0.05,
        }
    }
}

/// Stateful overhead sampler: calibration + machine condition + a
/// deterministic jitter stream.
#[derive(Debug)]
pub struct OverheadModel {
    cal: Calibration,
    topology: Topology,
    load: BackgroundLoad,
    rng: StdRng,
}

impl OverheadModel {
    /// Creates a model for `topology` under `load`, with jitter stream
    /// seeded by `seed` (same seed ⇒ identical samples).
    pub fn new(cal: Calibration, topology: Topology, load: BackgroundLoad, seed: u64) -> Self {
        OverheadModel {
            cal,
            topology,
            load,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The background load this model simulates.
    #[inline]
    pub fn load(&self) -> BackgroundLoad {
        self.load
    }

    /// The calibration in use.
    #[inline]
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    fn jittered(&mut self, ns: f64) -> Span {
        let j = self.cal.jitter;
        let f = if j > 0.0 {
            self.rng.random_range(1.0 - j..=1.0 + j)
        } else {
            1.0
        };
        Span::from_nanos((ns * f).max(0.0) as u64)
    }

    /// Δm: overhead between the release time and the beginning of the
    /// mandatory part. Depends on the machine condition but *not* on the
    /// number of optional parts (paper Fig. 10: "approximately constant,
    /// regardless of the number of parallel optional parts").
    pub fn begin_mandatory(&mut self) -> Span {
        let mut ns = self.cal.begin_mandatory_ns as f64;
        if self.load.occupies_siblings() {
            ns *= self.cal.begin_mandatory_sibling_factor;
        }
        if self.load.pollutes_cache() {
            ns *= self.cal.begin_mandatory_cache_factor;
        }
        self.jittered(ns)
    }

    /// Δb contribution of signalling *one* waiting optional thread.
    /// The full Δb for a job is the sum over its npᵢ parts — the O(npᵢ)
    /// loop of `pthread_cond_signal` calls in the mandatory thread.
    pub fn signal_one_optional(&mut self) -> Span {
        let mut ns = self.cal.signal_ns as f64;
        if self.load.saturates_branch_units() {
            ns *= self.cal.signal_branch_factor;
        }
        if self.load.pollutes_cache() {
            ns *= self.cal.signal_cache_factor;
        }
        self.jittered(ns)
    }

    /// Δs: switching the mandatory thread to the optional thread, given
    /// that `np` parallel optional parts exist machine-wide.
    ///
    /// Unloaded, the cost grows with np and surges near full SMT occupancy
    /// (Fig. 11a); under load the switch happens amid already-saturated
    /// run queues and is approximately constant (Figs. 11b–c).
    pub fn switch_to_optional(&mut self, np: usize) -> Span {
        let ns = match self.load {
            BackgroundLoad::NoLoad => {
                let max = self.topology.hw_threads() as f64;
                let frac = (np as f64 / max).min(1.0);
                self.cal.switch_ns as f64
                    + self.cal.switch_per_part_ns as f64 * np as f64
                    + self.cal.switch_surge_ns as f64 * frac.powf(self.cal.switch_surge_exponent)
            }
            BackgroundLoad::CpuLoad => self.cal.switch_loaded_cpu_ns as f64,
            BackgroundLoad::CpuMemoryLoad => self.cal.switch_loaded_mem_ns as f64,
        };
        self.jittered(ns)
    }

    /// Δe contribution of terminating *one* optional part. `cross_core` is
    /// whether this termination hops to a different core than the previous
    /// one in the termination sequence — the locality mechanism that makes
    /// OneByOne worst and AllByAll best under load (Figs. 13b–c).
    pub fn end_one_part(&mut self, cross_core: bool) -> Span {
        let mut ns = self.cal.end_part_ns as f64;
        match self.load {
            BackgroundLoad::NoLoad => {}
            BackgroundLoad::CpuLoad => ns *= self.cal.end_cpu_factor,
            BackgroundLoad::CpuMemoryLoad => ns *= self.cal.end_mem_factor,
        }
        if cross_core {
            let mut hop = self.cal.end_cross_core_ns as f64;
            match self.load {
                BackgroundLoad::NoLoad => {}
                BackgroundLoad::CpuLoad => hop *= self.cal.end_cross_core_cpu_factor,
                BackgroundLoad::CpuMemoryLoad => hop *= self.cal.end_cross_core_mem_factor,
            }
            ns += hop;
        }
        self.jittered(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(load: BackgroundLoad) -> OverheadModel {
        OverheadModel::new(
            Calibration::default(),
            Topology::xeon_phi_3120a(),
            load,
            42,
        )
    }

    fn mean_us(samples: impl Iterator<Item = Span>) -> f64 {
        let v: Vec<f64> = samples.map(|s| s.as_micros_f64()).collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = model(BackgroundLoad::CpuLoad);
        let mut b = model(BackgroundLoad::CpuLoad);
        for _ in 0..100 {
            assert_eq!(a.begin_mandatory(), b.begin_mandatory());
            assert_eq!(a.end_one_part(true), b.end_one_part(true));
        }
    }

    #[test]
    fn begin_mandatory_orders_by_load() {
        // Fig. 10: NoLoad < CpuLoad < CpuMemoryLoad.
        let none = mean_us((0..200).map(|_| model(BackgroundLoad::NoLoad).begin_mandatory()));
        let cpu = mean_us((0..200).map(|_| model(BackgroundLoad::CpuLoad).begin_mandatory()));
        let mem =
            mean_us((0..200).map(|_| model(BackgroundLoad::CpuMemoryLoad).begin_mandatory()));
        assert!(none < cpu && cpu < mem, "{none} {cpu} {mem}");
        // Magnitudes within the paper's 0–300 µs axis.
        assert!(none > 20.0 && mem < 300.0, "{none} {mem}");
    }

    #[test]
    fn begin_mandatory_independent_of_np() {
        // Δm takes no np argument at all: constancy is structural.
        let mut m = model(BackgroundLoad::NoLoad);
        let s = m.begin_mandatory();
        assert!(s > Span::ZERO);
    }

    #[test]
    fn signal_cost_cpu_exceeds_mem_exceeds_none() {
        // Fig. 12's inversion: CpuLoad > CpuMemoryLoad > NoLoad.
        let none =
            mean_us((0..200).map(|_| model(BackgroundLoad::NoLoad).signal_one_optional()));
        let cpu =
            mean_us((0..200).map(|_| model(BackgroundLoad::CpuLoad).signal_one_optional()));
        let mem = mean_us(
            (0..200).map(|_| model(BackgroundLoad::CpuMemoryLoad).signal_one_optional()),
        );
        assert!(cpu > mem && mem > none, "{cpu} {mem} {none}");
    }

    #[test]
    fn switch_grows_with_np_only_unloaded() {
        let mut m = model(BackgroundLoad::NoLoad);
        let small = mean_us((0..50).map(|_| m.switch_to_optional(4)));
        let large = mean_us((0..50).map(|_| m.switch_to_optional(228)));
        assert!(large > small * 3.0, "unloaded surge missing: {small} {large}");

        let mut c = model(BackgroundLoad::CpuLoad);
        let c_small = mean_us((0..50).map(|_| c.switch_to_optional(4)));
        let c_large = mean_us((0..50).map(|_| c.switch_to_optional(228)));
        assert!(
            (c_large - c_small).abs() < c_small * 0.2,
            "loaded Δs should be ~constant: {c_small} {c_large}"
        );
    }

    #[test]
    fn switch_surge_dominates_at_full_occupancy() {
        // Fig. 11a: dramatic increase at np = 228 relative to 171.
        let mut m = model(BackgroundLoad::NoLoad);
        let at_171 = mean_us((0..100).map(|_| m.switch_to_optional(171)));
        let at_228 = mean_us((0..100).map(|_| m.switch_to_optional(228)));
        assert!(at_228 > at_171 * 1.5, "{at_171} {at_228}");
    }

    #[test]
    fn end_part_mem_exceeds_cpu_exceeds_none() {
        // Fig. 13: CpuMemoryLoad > CpuLoad > NoLoad (opposite of Δb).
        let none = mean_us((0..200).map(|_| model(BackgroundLoad::NoLoad).end_one_part(false)));
        let cpu = mean_us((0..200).map(|_| model(BackgroundLoad::CpuLoad).end_one_part(false)));
        let mem =
            mean_us((0..200).map(|_| model(BackgroundLoad::CpuMemoryLoad).end_one_part(false)));
        assert!(mem > cpu && cpu > none, "{mem} {cpu} {none}");
    }

    #[test]
    fn cross_core_penalty_matters_under_load() {
        let mut m = model(BackgroundLoad::CpuMemoryLoad);
        let local = mean_us((0..200).map(|_| m.end_one_part(false)));
        let hop = mean_us((0..200).map(|_| m.end_one_part(true)));
        assert!(hop > local * 1.15, "{local} {hop}");

        // Unloaded the penalty is small (Fig. 13a: policies ≈ equal).
        let mut n = model(BackgroundLoad::NoLoad);
        let local_n = mean_us((0..200).map(|_| n.end_one_part(false)));
        let hop_n = mean_us((0..200).map(|_| n.end_one_part(true)));
        assert!(hop_n < local_n * 1.10, "{local_n} {hop_n}");
    }

    #[test]
    fn end_dominates_begin() {
        // Paper: "the overhead of ending the parallel optional parts is the
        // largest of all types of overhead" — per part, Δe >> Δb.
        let mut m = model(BackgroundLoad::NoLoad);
        let b = m.signal_one_optional();
        let e = m.end_one_part(false);
        assert!(e > b * 2);
    }

    #[test]
    fn kinds_and_symbols() {
        assert_eq!(OverheadKind::ALL.len(), 4);
        assert_eq!(OverheadKind::BeginMandatory.symbol(), "Δm");
        assert_eq!(OverheadKind::EndOptional.symbol(), "Δe");
    }

    #[test]
    fn zero_jitter_is_exact() {
        let cal = Calibration {
            jitter: 0.0,
            ..Calibration::default()
        };
        let mut m = OverheadModel::new(
            cal,
            Topology::xeon_phi_3120a(),
            BackgroundLoad::NoLoad,
            0,
        );
        assert_eq!(m.begin_mandatory(), Span::from_micros(50));
        assert_eq!(m.signal_one_optional(), Span::from_micros(26));
    }
}
