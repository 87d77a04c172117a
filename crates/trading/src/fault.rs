//! Feed-fault injection and overload resilience for the trading layer:
//! the market-data counterpart of `rtseed-sim`'s `FaultPlan`.
//!
//! A real feed handler has to survive exactly four things going wrong
//! upstream: the feed goes quiet (stall), drops data (gap), delivers
//! stale data late (out-of-order), or delivers garbage (NaN / crossed
//! ticks). This module provides:
//!
//! * [`FeedFaultPlan`] — a deterministic, seeded schedule of those faults,
//!   pure in `(seed, poll slot)` so any run replays bit-identically;
//! * [`FaultyFeed`] — a [`TickSource`] wrapper that injects the plan into
//!   any underlying feed;
//! * [`FeedWatchdog`] — the defence: validates every tick with
//!   [`Tick::validate`], retries stalls with bounded exponential backoff,
//!   and, after too many consecutive dropouts, trips a latched
//!   [`KillSwitch`]: from then on [`FeedWatchdog::poll`] returns
//!   [`FeedError::KillSwitch`] and `next_tick` returns `None`, so the
//!   consumer sees no tick and places no order.
//!
//! The escalation ladder mirrors the scheduler core's overload
//! supervisor: *retry* (absorb transients) → *dropout* (abstain this
//! cycle, like a shed optional part) → *kill switch* (degraded mode:
//! stop trading, keep accounting).

use core::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rtseed_model::{Span, Time};

use crate::market::{Tick, TickError, TickSource};

/// One fault the plan can inject at a poll slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedFault {
    /// The feed yields nothing for `polls` consecutive polls (this one
    /// included), then resumes where it left off.
    Stall {
        /// Number of empty polls, at least 1.
        polls: u32,
    },
    /// `ticks` underlying ticks are silently dropped before the next
    /// delivery — a timestamp gap, but otherwise valid data.
    Gap {
        /// Number of ticks dropped.
        ticks: u32,
    },
    /// Two adjacent ticks are delivered swapped: the newer first, then the
    /// stale one (which a validating consumer must reject).
    OutOfOrder,
    /// The tick's bid is corrupted to NaN.
    NanTick,
}

/// Per-poll probabilities for randomly injected faults (evaluated in the
/// order stall, gap, out-of-order, NaN; first hit wins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedFaultRates {
    /// Probability of a stall at each slot.
    pub stall: f64,
    /// Stall length in polls when one fires.
    pub stall_polls: u32,
    /// Probability of a gap at each slot.
    pub gap: f64,
    /// Gap length in ticks when one fires.
    pub gap_ticks: u32,
    /// Probability of an out-of-order swap at each slot.
    pub out_of_order: f64,
    /// Probability of a NaN tick at each slot.
    pub nan: f64,
}

impl Default for FeedFaultRates {
    fn default() -> Self {
        FeedFaultRates {
            stall: 0.0,
            stall_polls: 3,
            gap: 0.0,
            gap_ticks: 2,
            out_of_order: 0.0,
            nan: 0.0,
        }
    }
}

/// A deterministic, seeded schedule of feed faults.
///
/// Like `rtseed-sim`'s `FaultPlan`, the plan is a *pure function* of
/// `(seed, poll slot)`: explicit faults are looked up by slot, random
/// faults are decided by a seed-keyed hash of the slot, so the same plan
/// over the same feed replays identically every time.
///
/// # Examples
///
/// ```
/// use rtseed_trading::fault::{FaultyFeed, FeedFault, FeedFaultPlan};
/// use rtseed_trading::market::{SyntheticFeed, TickSource};
///
/// let plan = FeedFaultPlan::new(7).with_fault(2, FeedFault::NanTick);
/// let mut feed = FaultyFeed::new(SyntheticFeed::eur_usd(1), plan);
/// let ticks: Vec<_> = (0..3).filter_map(|_| feed.next_tick()).collect();
/// assert!(ticks[2].bid.is_nan());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeedFaultPlan {
    seed: u64,
    scheduled: Vec<(u64, FeedFault)>,
    rates: Option<FeedFaultRates>,
}

impl FeedFaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FeedFaultPlan {
        FeedFaultPlan {
            seed,
            scheduled: Vec::new(),
            rates: None,
        }
    }

    /// A plan that injects nothing.
    pub fn none() -> FeedFaultPlan {
        FeedFaultPlan::new(0)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.rates.is_none()
    }

    /// Schedules `fault` at poll slot `slot` (0-based count of delivery
    /// attempts).
    ///
    /// # Panics
    ///
    /// Panics on a zero-length stall or gap.
    pub fn with_fault(mut self, slot: u64, fault: FeedFault) -> FeedFaultPlan {
        match fault {
            FeedFault::Stall { polls } => {
                assert!(polls > 0, "stall must last at least one poll")
            }
            FeedFault::Gap { ticks } => {
                assert!(ticks > 0, "gap must drop at least one tick")
            }
            FeedFault::OutOfOrder | FeedFault::NanTick => {}
        }
        self.scheduled.push((slot, fault));
        self
    }

    /// Enables seed-keyed random faults at the given rates.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or a magnitude is 0.
    pub fn with_random_faults(mut self, rates: FeedFaultRates) -> FeedFaultPlan {
        for p in [rates.stall, rates.gap, rates.out_of_order, rates.nan] {
            assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        }
        assert!(rates.stall_polls > 0, "stall must last at least one poll");
        assert!(rates.gap_ticks > 0, "gap must drop at least one tick");
        self.rates = Some(rates);
        self
    }

    /// The fault (if any) to inject at poll slot `slot`. Explicit faults
    /// win over random ones; pure in `(self, slot)`.
    pub fn fault_at(&self, slot: u64) -> Option<FeedFault> {
        if let Some((_, fault)) =
            self.scheduled.iter().find(|(s, _)| *s == slot)
        {
            return Some(*fault);
        }
        let rates = self.rates?;
        if unit(hash(self.seed, slot, 1)) < rates.stall {
            return Some(FeedFault::Stall { polls: rates.stall_polls });
        }
        if unit(hash(self.seed, slot, 2)) < rates.gap {
            return Some(FeedFault::Gap { ticks: rates.gap_ticks });
        }
        if unit(hash(self.seed, slot, 3)) < rates.out_of_order {
            return Some(FeedFault::OutOfOrder);
        }
        if unit(hash(self.seed, slot, 4)) < rates.nan {
            return Some(FeedFault::NanTick);
        }
        None
    }
}

/// splitmix64-style avalanche of `(seed, slot, salt)`.
fn hash(seed: u64, slot: u64, salt: u64) -> u64 {
    let mut x = seed
        ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Maps a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Counters of what a [`FaultyFeed`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Stall windows entered.
    pub stalls: u64,
    /// Gaps injected.
    pub gaps: u64,
    /// Adjacent-tick swaps injected.
    pub out_of_order: u64,
    /// NaN ticks injected.
    pub nan_ticks: u64,
}

impl InjectedFaults {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.stalls + self.gaps + self.out_of_order + self.nan_ticks
    }
}

/// A [`TickSource`] wrapper that injects a [`FeedFaultPlan`] into any
/// underlying feed. Stalls surface as `None` from
/// [`next_tick`](TickSource::next_tick) (indistinguishable from
/// exhaustion, as in a real handler — that ambiguity is exactly what
/// [`FeedWatchdog`] exists to manage).
#[derive(Debug)]
pub struct FaultyFeed<S> {
    inner: S,
    plan: FeedFaultPlan,
    slot: u64,
    stall_left: u32,
    stale: Option<Tick>,
    injected: InjectedFaults,
}

impl<S: TickSource> FaultyFeed<S> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: S, plan: FeedFaultPlan) -> FaultyFeed<S> {
        FaultyFeed {
            inner,
            plan,
            slot: 0,
            stall_left: 0,
            stale: None,
            injected: InjectedFaults::default(),
        }
    }

    /// What has been injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// The plan driving the injection.
    pub fn plan(&self) -> &FeedFaultPlan {
        &self.plan
    }
}

impl<S: TickSource> TickSource for FaultyFeed<S> {
    fn next_tick(&mut self) -> Option<Tick> {
        if self.stall_left > 0 {
            self.stall_left -= 1;
            return None;
        }
        if let Some(stale) = self.stale.take() {
            return Some(stale); // the held tick, now out of order
        }
        let slot = self.slot;
        self.slot += 1;
        match self.plan.fault_at(slot) {
            Some(FeedFault::Stall { polls }) => {
                self.injected.stalls += 1;
                self.stall_left = polls - 1;
                None
            }
            Some(FeedFault::Gap { ticks }) => {
                for _ in 0..ticks {
                    self.inner.next_tick()?;
                }
                self.injected.gaps += 1;
                self.inner.next_tick()
            }
            Some(FeedFault::OutOfOrder) => {
                let first = self.inner.next_tick()?;
                match self.inner.next_tick() {
                    Some(second) => {
                        self.injected.out_of_order += 1;
                        self.stale = Some(first);
                        Some(second)
                    }
                    // Nothing left to swap with: deliver in order.
                    None => Some(first),
                }
            }
            Some(FeedFault::NanTick) => {
                let mut tick = self.inner.next_tick()?;
                self.injected.nan_ticks += 1;
                tick.bid = f64::NAN;
                Some(tick)
            }
            None => self.inner.next_tick(),
        }
    }
}

/// A latched, shareable trading halt: the last rung of the feed-fault
/// escalation ladder.
///
/// The [`FeedWatchdog`] trips it after too many consecutive dropouts and
/// from then on delivers no tick, so a trader on that feed places no
/// order until a manual [`reset`](KillSwitch::reset).
#[derive(Debug, Default)]
pub struct KillSwitch(AtomicBool);

impl KillSwitch {
    /// A fresh, untripped switch.
    pub fn new() -> KillSwitch {
        KillSwitch::default()
    }

    /// Trips the switch (latched).
    pub fn trip(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once tripped.
    pub fn is_tripped(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Clears the switch (manual intervention).
    pub fn reset(&self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Watchdog tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Extra polls attempted after an empty or invalid one before the
    /// cycle is declared a dropout.
    pub max_retries: u32,
    /// Backoff charged before the first retry; doubles per retry.
    pub backoff_start: Span,
    /// Backoff ceiling.
    pub backoff_cap: Span,
    /// Consecutive dropouts that trip the [`KillSwitch`].
    pub trip_after: u32,
    /// Fraction in `[0, 1]` of each charged backoff that jitter may shave
    /// off. `0.0` (the default) charges the exact doubling sequence.
    pub jitter: f64,
    /// Seed the jitter is derived from (hash of seed and retry ordinal —
    /// never wall-clock or process entropy), so jittered backoff replays
    /// byte-identically. Pass the fault plan's seed via
    /// [`WatchdogConfig::with_jitter`].
    pub jitter_seed: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_retries: 3,
            backoff_start: Span::from_millis(10),
            backoff_cap: Span::from_secs(1),
            trip_after: 3,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }
}

impl WatchdogConfig {
    /// Enables backoff jitter: each charged backoff is shortened by up to
    /// `jitter` of itself, decided by hashing `seed` with the retry
    /// ordinal. Deterministic — same seed, same charged backoffs — while
    /// keeping concurrent watchdogs off each other's retry cadence. Pass
    /// the fault plan's seed so one knob replays the whole scenario.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is outside `[0, 1]`.
    #[must_use]
    pub fn with_jitter(mut self, seed: u64, jitter: f64) -> WatchdogConfig {
        assert!(
            (0.0..=1.0).contains(&jitter),
            "jitter must be within [0, 1]"
        );
        self.jitter_seed = seed;
        self.jitter = jitter;
        self
    }
}

/// Why a [`FeedWatchdog::poll`] produced no tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// The retry budget was exhausted this cycle (stalled or persistently
    /// invalid feed); the consumer should abstain this cycle.
    Dropout {
        /// Retries spent before giving up.
        retries: u32,
    },
    /// The kill switch is tripped: the feed is considered dead and no
    /// polling is attempted.
    KillSwitch,
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::Dropout { retries } => {
                write!(f, "feed dropout after {retries} retries")
            }
            FeedError::KillSwitch => f.write_str("kill switch tripped"),
        }
    }
}

impl std::error::Error for FeedError {}

/// What the watchdog saw and did over a run — the trading-layer
/// counterpart of the scheduler core's `FaultReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedFaultReport {
    /// Validated ticks delivered downstream.
    pub ticks_delivered: u64,
    /// Empty polls observed (stalls or exhaustion).
    pub stall_polls: u64,
    /// Retries spent across all cycles.
    pub retries: u64,
    /// Total backoff charged across all retries.
    pub backoff_total: Span,
    /// Ticks rejected for NaN / non-positive / crossed prices.
    pub rejected_invalid: u64,
    /// Ticks rejected for non-monotonic timestamps.
    pub rejected_out_of_order: u64,
    /// Cycles that exhausted the retry budget.
    pub dropouts: u64,
    /// `true` once the kill switch was tripped.
    pub tripped: bool,
}

impl FeedFaultReport {
    /// Total ticks rejected by validation.
    pub fn rejected(&self) -> u64 {
        self.rejected_invalid + self.rejected_out_of_order
    }
}

impl fmt::Display for FeedFaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ticks, {} stall polls, {} retries (backoff {}), \
             {} rejected ({} stale), {} dropouts{}",
            self.ticks_delivered,
            self.stall_polls,
            self.retries,
            self.backoff_total,
            self.rejected(),
            self.rejected_out_of_order,
            self.dropouts,
            if self.tripped { ", KILL SWITCH" } else { "" },
        )
    }
}

/// The feed defence: validates, retries with bounded exponential backoff,
/// and escalates persistent failure to a [`KillSwitch`].
///
/// `FeedWatchdog` is itself a [`TickSource`] (dropouts surface as `None`),
/// so it slots directly under an
/// [`ImpreciseTrader`](crate::imprecise::ImpreciseTrader): a faulted cycle
/// simply has no fresh tick, exactly like a terminated optional part has
/// no opinion.
///
/// Note the watchdog cannot distinguish a stalled feed from an exhausted
/// one — by design. A real handler can't either; a feed that stays quiet
/// past the retry and trip budgets *is* dead as far as trading is
/// concerned, and the kill switch records that determination.
#[derive(Debug)]
pub struct FeedWatchdog<S> {
    inner: S,
    cfg: WatchdogConfig,
    kill: Arc<KillSwitch>,
    last_at: Option<Time>,
    consecutive_dropouts: u32,
    report: FeedFaultReport,
}

impl<S: TickSource> FeedWatchdog<S> {
    /// Wraps `inner` with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `trip_after` is 0 or the backoff range is inverted.
    pub fn new(inner: S, cfg: WatchdogConfig) -> FeedWatchdog<S> {
        assert!(cfg.trip_after > 0, "trip_after must be at least 1");
        assert!(
            cfg.backoff_start <= cfg.backoff_cap,
            "backoff_start must not exceed backoff_cap"
        );
        FeedWatchdog {
            inner,
            cfg,
            kill: Arc::new(KillSwitch::new()),
            last_at: None,
            consecutive_dropouts: 0,
            report: FeedFaultReport::default(),
        }
    }

    /// A handle to the kill switch, for whoever monitors or resets it.
    pub fn kill_switch(&self) -> Arc<KillSwitch> {
        Arc::clone(&self.kill)
    }

    /// What the watchdog has seen and done so far.
    pub fn report(&self) -> &FeedFaultReport {
        &self.report
    }

    /// Polls for the next *validated* tick, retrying empty or invalid
    /// polls up to the configured budget with exponential backoff.
    pub fn poll(&mut self) -> Result<Tick, FeedError> {
        if self.kill.is_tripped() {
            return Err(FeedError::KillSwitch);
        }
        let mut backoff = self.cfg.backoff_start;
        let mut retries = 0u32;
        loop {
            match self.inner.next_tick() {
                Some(tick) => match tick.validate(self.last_at) {
                    Ok(()) => {
                        self.last_at = Some(tick.at);
                        self.consecutive_dropouts = 0;
                        self.report.ticks_delivered += 1;
                        return Ok(tick);
                    }
                    Err(TickError::OutOfOrder { .. }) => {
                        self.report.rejected_out_of_order += 1;
                    }
                    Err(_) => self.report.rejected_invalid += 1,
                },
                None => self.report.stall_polls += 1,
            }
            if retries >= self.cfg.max_retries {
                self.report.dropouts += 1;
                self.consecutive_dropouts += 1;
                if self.consecutive_dropouts >= self.cfg.trip_after {
                    self.kill.trip();
                    self.report.tripped = true;
                }
                return Err(FeedError::Dropout { retries });
            }
            retries += 1;
            self.report.retries += 1;
            let charged = self.jittered(backoff);
            self.report.backoff_total += charged;
            backoff = (backoff * 2).min(self.cfg.backoff_cap);
        }
    }

    /// The backoff actually charged for a retry: the doubling base,
    /// shortened by up to `cfg.jitter` of itself. The shave is a pure
    /// function of `(jitter_seed, lifetime retry ordinal)` — no clock, no
    /// process entropy — so a replay charges byte-identical backoffs.
    fn jittered(&self, base: Span) -> Span {
        if self.cfg.jitter <= 0.0 {
            return base;
        }
        // `report.retries` was just incremented: it is this retry's
        // 1-based lifetime ordinal.
        let u = unit(hash(self.cfg.jitter_seed, self.report.retries, 0xD09));
        let cut = (base.as_nanos() as f64 * self.cfg.jitter.min(1.0) * u) as u64;
        Span::from_nanos(base.as_nanos().saturating_sub(cut))
    }
}

impl<S: TickSource> TickSource for FeedWatchdog<S> {
    /// A dropout or tripped kill switch surfaces as `None`: the consumer
    /// abstains this cycle (or, once tripped, permanently).
    fn next_tick(&mut self) -> Option<Tick> {
        self.poll().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{collect_ticks, SyntheticFeed};

    fn feed(seed: u64) -> SyntheticFeed {
        SyntheticFeed::eur_usd(seed)
    }

    /// Drains up to `n` validated ticks through a watchdog, counting polls.
    fn drain<S: TickSource>(
        dog: &mut FeedWatchdog<S>,
        polls: usize,
    ) -> Vec<Tick> {
        (0..polls).filter_map(|_| dog.next_tick()).collect()
    }

    #[test]
    fn empty_plan_is_transparent() {
        let plan = FeedFaultPlan::none();
        assert!(plan.is_empty());
        let mut faulty = FaultyFeed::new(feed(3), plan);
        let direct = collect_ticks(&mut feed(3), 50);
        let via = collect_ticks(&mut faulty, 50);
        assert_eq!(direct, via);
        assert_eq!(faulty.injected().total(), 0);
    }

    #[test]
    fn plan_is_pure_in_seed_and_slot() {
        let rates = FeedFaultRates {
            stall: 0.1,
            gap: 0.1,
            out_of_order: 0.1,
            nan: 0.1,
            ..FeedFaultRates::default()
        };
        let a = FeedFaultPlan::new(11).with_random_faults(rates);
        let b = FeedFaultPlan::new(11).with_random_faults(rates);
        let c = FeedFaultPlan::new(12).with_random_faults(rates);
        let seq = |p: &FeedFaultPlan| {
            (0..500).map(|s| p.fault_at(s)).collect::<Vec<_>>()
        };
        assert_eq!(seq(&a), seq(&b));
        assert_ne!(seq(&a), seq(&c));
        assert!(seq(&a).iter().any(|f| f.is_some()));
    }

    #[test]
    fn explicit_fault_wins_over_random() {
        let plan = FeedFaultPlan::new(1)
            .with_random_faults(FeedFaultRates {
                nan: 1.0,
                ..FeedFaultRates::default()
            })
            .with_fault(5, FeedFault::OutOfOrder);
        assert_eq!(plan.fault_at(5), Some(FeedFault::OutOfOrder));
        assert_eq!(plan.fault_at(6), Some(FeedFault::NanTick));
    }

    #[test]
    fn faulty_feed_replays_identically() {
        let rates = FeedFaultRates {
            stall: 0.05,
            gap: 0.05,
            out_of_order: 0.05,
            nan: 0.05,
            ..FeedFaultRates::default()
        };
        // Compare by bit pattern: injected NaNs are bitwise identical
        // across replays but compare unequal under f64's `==`.
        let run = || {
            let plan = FeedFaultPlan::new(99).with_random_faults(rates);
            let mut faulty = FaultyFeed::new(feed(7), plan);
            let raw: Vec<Option<(Time, u64, u64)>> = (0..300)
                .map(|_| {
                    faulty.next_tick().map(|t| {
                        (t.at, t.bid.to_bits(), t.ask.to_bits())
                    })
                })
                .collect();
            (raw, faulty.injected())
        };
        let (a, ia) = run();
        let (b, ib) = run();
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        assert!(ia.total() > 0, "rates should have fired: {ia:?}");
    }

    #[test]
    fn nan_ticks_are_injected_and_rejected() {
        let plan = FeedFaultPlan::new(1).with_fault(3, FeedFault::NanTick);
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig::default(),
        );
        let ticks = drain(&mut dog, 20);
        // The corrupt tick cost one retry; the stream stays clean.
        assert_eq!(ticks.len(), 20);
        assert!(ticks.iter().all(|t| t.bid.is_finite()));
        assert_eq!(dog.report().rejected_invalid, 1);
        assert_eq!(dog.report().retries, 1);
        assert_eq!(dog.report().dropouts, 0);
    }

    #[test]
    fn out_of_order_ticks_are_rejected_and_stream_stays_monotonic() {
        let plan = FeedFaultPlan::new(1).with_fault(4, FeedFault::OutOfOrder);
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig::default(),
        );
        let ticks = drain(&mut dog, 20);
        assert!(ticks.windows(2).all(|w| w[0].at < w[1].at));
        assert_eq!(dog.report().rejected_out_of_order, 1);
    }

    #[test]
    fn gaps_pass_validation_with_jumped_timestamps() {
        let plan = FeedFaultPlan::new(1)
            .with_fault(2, FeedFault::Gap { ticks: 3 });
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig::default(),
        );
        let ticks = drain(&mut dog, 10);
        assert_eq!(ticks.len(), 10);
        assert_eq!(dog.report().rejected(), 0);
        // Slot 2 delivers tick index 5 (2, 3, 4 dropped): a 4 s jump.
        let jump = ticks[2].at - ticks[1].at;
        assert_eq!(jump, Span::from_secs(4));
    }

    #[test]
    fn short_stall_is_absorbed_by_retries() {
        let plan = FeedFaultPlan::new(1)
            .with_fault(5, FeedFault::Stall { polls: 3 });
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig::default(), // 3 retries: just enough
        );
        let ticks = drain(&mut dog, 20);
        assert_eq!(ticks.len(), 20, "stall absorbed, no cycle lost");
        let r = dog.report();
        assert_eq!(r.stall_polls, 3);
        assert_eq!(r.retries, 3);
        assert_eq!(r.dropouts, 0);
        // Backoff doubled: 10 + 20 + 40 ms.
        assert_eq!(r.backoff_total, Span::from_millis(70));
        assert!(!r.tripped);
    }

    #[test]
    fn long_stall_is_a_dropout_but_recovers() {
        let plan = FeedFaultPlan::new(1)
            .with_fault(5, FeedFault::Stall { polls: 6 });
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig::default(),
        );
        // Poll-by-poll: 5 good, then one dropout (4 empty polls), then the
        // remaining 2 stalled polls are absorbed by the next cycle's
        // retries and ticks resume.
        let results: Vec<Option<Tick>> =
            (0..10).map(|_| dog.next_tick()).collect();
        assert!(results[..5].iter().all(Option::is_some));
        assert!(results[5].is_none(), "retry budget exhausted");
        assert!(results[6..].iter().all(Option::is_some));
        let r = dog.report();
        assert_eq!(r.dropouts, 1);
        assert!(!r.tripped, "one dropout is below the trip threshold");
    }

    #[test]
    fn backoff_is_capped() {
        let plan = FeedFaultPlan::new(1)
            .with_fault(0, FeedFault::Stall { polls: 20 });
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig {
                max_retries: 6,
                backoff_start: Span::from_millis(100),
                backoff_cap: Span::from_millis(400),
                trip_after: 10,
                ..WatchdogConfig::default()
            },
        );
        assert!(dog.next_tick().is_none());
        // 100 + 200 + 400 + 400 + 400 + 400.
        assert_eq!(dog.report().backoff_total, Span::from_millis(1900));
    }

    #[test]
    fn backoff_jitter_is_seeded_and_replays_byte_identically() {
        let total = |seed: u64| {
            let plan = FeedFaultPlan::new(1).with_fault(0, FeedFault::Stall { polls: 20 });
            let mut dog = FeedWatchdog::new(
                FaultyFeed::new(feed(5), plan),
                WatchdogConfig {
                    max_retries: 6,
                    backoff_start: Span::from_millis(100),
                    backoff_cap: Span::from_millis(400),
                    trip_after: 10,
                    ..WatchdogConfig::default()
                }
                .with_jitter(seed, 0.5),
            );
            assert!(dog.next_tick().is_none());
            dog.report().backoff_total
        };
        // Pure in the seed: same seed, same charged backoff — no hidden
        // entropy path.
        assert_eq!(total(42), total(42));
        assert_ne!(total(42), total(43), "different seed, different jitter");
        // Jitter only ever shaves, bounded by the configured fraction.
        let unjittered = Span::from_millis(1900);
        assert!(total(42) < unjittered);
        assert!(total(42).as_nanos() * 2 >= unjittered.as_nanos());
    }

    #[test]
    fn zero_jitter_charges_the_exact_doubling_sequence() {
        // `with_jitter(seed, 0.0)` must be indistinguishable from the
        // default: the doubling sequence is charged exactly.
        let plan = FeedFaultPlan::new(1).with_fault(5, FeedFault::Stall { polls: 3 });
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig::default().with_jitter(123, 0.0),
        );
        assert_eq!(drain(&mut dog, 20).len(), 20);
        assert_eq!(dog.report().backoff_total, Span::from_millis(70));
    }

    #[test]
    fn sustained_stall_trips_the_kill_switch() {
        let plan = FeedFaultPlan::new(1)
            .with_fault(2, FeedFault::Stall { polls: 100 });
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig::default(), // 3 retries, trip after 3 dropouts
        );
        let kill = dog.kill_switch();
        assert_eq!(drain(&mut dog, 2).len(), 2);
        assert!(!kill.is_tripped());
        // Three consecutive dropout cycles (4 polls each) trip the switch.
        for _ in 0..3 {
            assert_eq!(dog.poll(), Err(FeedError::Dropout { retries: 3 }));
        }
        assert!(kill.is_tripped());
        assert!(dog.report().tripped);
        // Tripped: no more polling, even though the stall would end.
        assert_eq!(dog.poll(), Err(FeedError::KillSwitch));
        assert_eq!(dog.report().stall_polls, 12, "no polls after the trip");
        // Manual reset re-arms the watchdog: polling resumes (the stall
        // is still in progress, so the next cycle is a dropout, not a
        // kill-switch refusal).
        kill.reset();
        dog.consecutive_dropouts = 0;
        assert!(matches!(dog.poll(), Err(FeedError::Dropout { .. })));
    }

    #[test]
    fn good_tick_resets_the_dropout_streak() {
        // Two dropout cycles, a good tick, then two more dropout cycles:
        // never 3 consecutive, so the switch must not trip.
        let plan = FeedFaultPlan::new(1)
            .with_fault(1, FeedFault::Stall { polls: 8 })
            .with_fault(3, FeedFault::Stall { polls: 8 });
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(feed(5), plan),
            WatchdogConfig::default(),
        );
        let mut good = 0;
        let mut drops = 0;
        for _ in 0..12 {
            match dog.poll() {
                Ok(_) => good += 1,
                Err(FeedError::Dropout { .. }) => drops += 1,
                Err(FeedError::KillSwitch) => panic!("must not trip"),
            }
        }
        assert!(good > 0 && drops >= 4, "good={good} drops={drops}");
        assert!(!dog.report().tripped);
    }

    #[test]
    fn exhausted_feed_eventually_trips() {
        // A truly dead feed is indistinguishable from an endless stall:
        // after trip_after dropout cycles the watchdog declares it dead.
        let bounded = SyntheticFeed::new(
            1,
            crate::market::PriceProcess::GeometricBrownian {
                mu: 0.0,
                sigma: 0.0,
            },
            1.0,
            0.0001,
            Span::from_secs(1),
            Some(2),
        );
        let mut dog = FeedWatchdog::new(bounded, WatchdogConfig::default());
        assert_eq!(drain(&mut dog, 2).len(), 2);
        for _ in 0..3 {
            assert!(matches!(dog.poll(), Err(FeedError::Dropout { .. })));
        }
        assert_eq!(dog.poll(), Err(FeedError::KillSwitch));
    }

    #[test]
    fn report_displays_key_counters() {
        let r = FeedFaultReport {
            ticks_delivered: 10,
            dropouts: 2,
            tripped: true,
            ..FeedFaultReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("10 ticks"), "{s}");
        assert!(s.contains("KILL SWITCH"), "{s}");
    }
}
