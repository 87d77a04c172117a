//! Deterministic tenant-churn plans for the serving layer.
//!
//! A [`ChurnPlan`] scripts *when tenants come and go*: at simulated time
//! `t` a named tenant submits a task set ([`ChurnAction::Arrive`]) or an
//! admitted tenant departs ([`ChurnAction::Depart`]). The serving layer
//! replays the plan against its admission controller, so the same plan
//! and seed always yield the same sequence of admissions, rejections and
//! evictions — churn experiments are exactly as replayable as fault
//! injection ([`crate::fault`]).
//!
//! The plan is pure data: it says nothing about *whether* an arrival is
//! admitted. That decision belongs to the online RMWP admission test in
//! `rtseed-analysis`, consulted by the serving layer at replay time.

use rtseed_model::{TaskSpec, Time};

/// What a tenant does at a churn instant.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// A tenant named `name` submits `tasks` for admission.
    ///
    /// Whether the submission is admitted is decided by the serving
    /// layer's admission test at replay time; a rejected arrival leaves
    /// no residue and the same name may arrive again later.
    Arrive {
        /// Tenant name; also the key a later [`ChurnAction::Depart`]
        /// refers to.
        name: String,
        /// The task set the tenant wants scheduled.
        tasks: Vec<TaskSpec>,
    },
    /// The admitted tenant named `name` departs, releasing its tasks and
    /// the utilization they held. Departures of unknown or rejected
    /// tenants are ignored at replay time.
    Depart {
        /// Name given at arrival.
        name: String,
    },
}

/// A churn instant: an action at a simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// When the action happens.
    pub at: Time,
    /// What happens.
    pub action: ChurnAction,
}

/// A time-ordered script of tenant arrivals and departures.
///
/// Events are kept sorted by time; events at the same instant keep their
/// insertion order (stable), so a plan built in a fixed order replays
/// identically every run.
///
/// # Examples
///
/// ```
/// use rtseed_model::{Span, TaskSpec, Time};
/// use rtseed_sim::churn::ChurnPlan;
///
/// let task = TaskSpec::builder("τ")
///     .period(Span::from_millis(100))
///     .mandatory(Span::from_millis(10))
///     .windup(Span::from_millis(10))
///     .build()?;
/// let plan = ChurnPlan::new()
///     .arrive(Time::ZERO, "alpha", vec![task])
///     .depart(Time::from_nanos(500_000_000), "alpha");
/// assert_eq!(plan.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// An empty plan: no tenant ever arrives or departs.
    pub fn new() -> ChurnPlan {
        ChurnPlan::default()
    }

    /// Adds an arrival of tenant `name` with `tasks` at time `at`.
    #[must_use]
    pub fn arrive(mut self, at: Time, name: impl Into<String>, tasks: Vec<TaskSpec>) -> ChurnPlan {
        self.push(ChurnEvent {
            at,
            action: ChurnAction::Arrive {
                name: name.into(),
                tasks,
            },
        });
        self
    }

    /// Adds a departure of tenant `name` at time `at`.
    #[must_use]
    pub fn depart(mut self, at: Time, name: impl Into<String>) -> ChurnPlan {
        self.push(ChurnEvent {
            at,
            action: ChurnAction::Depart { name: name.into() },
        });
        self
    }

    /// Adds a seeded arrival storm: `n` tenants named `s0..s{n-1}` whose
    /// arrival instants are drawn deterministically from `seed` across
    /// `[0, window)`, each submitting the task set `tasks(i)` returns.
    ///
    /// The draw is a pure function of `(seed, i)` — the same storm
    /// replays byte-identically — and composes with hand-scripted events
    /// through the plan's stable time ordering.
    #[must_use]
    pub fn storm(
        mut self,
        seed: u64,
        n: usize,
        window: rtseed_model::Span,
        mut tasks: impl FnMut(usize) -> Vec<TaskSpec>,
    ) -> ChurnPlan {
        let span = window.as_nanos().max(1);
        for i in 0..n {
            let at = Time::from_nanos(splitmix(seed, i as u64) % span);
            self = self.arrive(at, format!("s{i}"), tasks(i));
        }
        self
    }

    /// Adds an already-built event, keeping the plan time-sorted with
    /// stable order among equal times.
    pub fn push(&mut self, event: ChurnEvent) {
        // Insert after the last event with `at <= event.at` (stable).
        let idx = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(idx, event);
    }

    /// The events in replay order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan scripts no churn at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// SplitMix64-style mix of `(seed, slot)` — the same construction the
/// fault plan uses, so storms and faults derive from one seed without
/// correlation.
///
/// Exported as [`crate::splitmix64`]: it is also the canonical sub-seed
/// splitter for sweep harnesses (one master seed → one independent seed
/// per Monte-Carlo run), so every axis of an experiment derives from a
/// single recorded number.
pub fn splitmix64(seed: u64, slot: u64) -> u64 {
    splitmix(seed, slot)
}

fn splitmix(seed: u64, slot: u64) -> u64 {
    let mut z = seed
        .wrapping_add(slot.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::Span;

    fn task() -> TaskSpec {
        TaskSpec::builder("τ")
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(10))
            .windup(Span::from_millis(10))
            .build()
            .unwrap()
    }

    #[test]
    fn events_are_time_sorted_regardless_of_insertion_order() {
        let plan = ChurnPlan::new()
            .depart(Time::from_nanos(500_000_000), "a")
            .arrive(Time::ZERO, "a", vec![task()])
            .arrive(Time::from_nanos(200_000_000), "b", vec![task()]);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![0, 200_000_000, 500_000_000]);
    }

    #[test]
    fn equal_times_keep_insertion_order() {
        let t = Time::from_nanos(100_000_000);
        let plan = ChurnPlan::new()
            .arrive(t, "first", vec![task()])
            .arrive(t, "second", vec![task()])
            .depart(t, "first");
        let names: Vec<&str> = plan
            .events()
            .iter()
            .map(|e| match &e.action {
                ChurnAction::Arrive { name, .. } | ChurnAction::Depart { name } => name.as_str(),
            })
            .collect();
        assert_eq!(names, vec!["first", "second", "first"]);
        assert!(matches!(
            plan.events()[2].action,
            ChurnAction::Depart { .. }
        ));
    }

    #[test]
    fn empty_plan_reports_empty() {
        let plan = ChurnPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(plan.events().is_empty());
    }

    #[test]
    fn storm_is_a_pure_function_of_its_seed() {
        let build = |seed| ChurnPlan::new().storm(seed, 50, Span::from_millis(200), |_| vec![task()]);
        assert_eq!(build(42), build(42));
        assert_ne!(build(42), build(43), "different seed, different storm");
        let plan = build(42);
        assert_eq!(plan.len(), 50);
        let window = Span::from_millis(200).as_nanos();
        for w in plan.events().windows(2) {
            assert!(w[0].at <= w[1].at, "storm stays time-sorted");
        }
        for e in plan.events() {
            assert!(e.at.as_nanos() < window);
        }
    }

    #[test]
    fn storm_composes_with_scripted_events() {
        let plan = ChurnPlan::new()
            .arrive(Time::ZERO, "adversary", vec![task()])
            .storm(7, 10, Span::from_millis(100), |_| vec![task()]);
        assert_eq!(plan.len(), 11);
        // The scripted t=0 arrival stays ahead of any storm arrival at 0.
        assert!(matches!(
            &plan.events()[0].action,
            ChurnAction::Arrive { name, .. } if name == "adversary"
        ));
    }
}
