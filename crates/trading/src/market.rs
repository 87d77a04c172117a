//! Market data: ticks, synthetic price processes and replay.
//!
//! The paper's feed (OANDA Japan) delivers one exchange rate per second;
//! [`SyntheticFeed`] reproduces that cadence with a seeded stochastic
//! process so experiments are reproducible offline.

use core::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtseed_model::{Span, Time};

/// One market tick: best bid/ask at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Feed timestamp.
    pub at: Time,
    /// Best bid (what a seller receives).
    pub bid: f64,
    /// Best ask (what a buyer pays).
    pub ask: f64,
}

impl Tick {
    /// Mid price.
    #[inline]
    pub fn mid(&self) -> f64 {
        (self.bid + self.ask) / 2.0
    }

    /// Quoted spread.
    #[inline]
    pub fn spread(&self) -> f64 {
        self.ask - self.bid
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:.5}/{:.5}", self.at, self.bid, self.ask)
    }
}

/// Why a tick failed [`Tick::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TickError {
    /// Bid or ask is NaN or infinite.
    NonFinite,
    /// Bid or ask is not strictly positive.
    NonPositive,
    /// Ask is below bid (crossed book).
    CrossedBook,
    /// Timestamp is not after the previously accepted tick.
    OutOfOrder {
        /// Timestamp of the last accepted tick.
        last: Time,
        /// Timestamp of the offending tick.
        at: Time,
    },
}

impl fmt::Display for TickError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TickError::NonFinite => f.write_str("non-finite price"),
            TickError::NonPositive => f.write_str("non-positive price"),
            TickError::CrossedBook => f.write_str("crossed book (ask < bid)"),
            TickError::OutOfOrder { last, at } => {
                write!(f, "out-of-order tick ({at} after {last})")
            }
        }
    }
}

impl std::error::Error for TickError {}

impl Tick {
    /// Validates the tick against basic feed invariants: finite, strictly
    /// positive prices, an uncrossed book, and (when `previous` is the
    /// timestamp of the last accepted tick) strictly increasing time.
    ///
    /// This is the sanity gate a real feed handler runs before letting a
    /// tick anywhere near the strategies; `FeedWatchdog` in
    /// [`fault`](crate::fault) applies it to every polled tick.
    pub fn validate(&self, previous: Option<Time>) -> Result<(), TickError> {
        if !self.bid.is_finite() || !self.ask.is_finite() {
            return Err(TickError::NonFinite);
        }
        if self.bid <= 0.0 || self.ask <= 0.0 {
            return Err(TickError::NonPositive);
        }
        if self.ask < self.bid {
            return Err(TickError::CrossedBook);
        }
        if let Some(last) = previous {
            if self.at <= last {
                return Err(TickError::OutOfOrder { last, at: self.at });
            }
        }
        Ok(())
    }
}

/// A source of market ticks.
pub trait TickSource {
    /// The next tick, or `None` when the feed is exhausted.
    fn next_tick(&mut self) -> Option<Tick>;
}

impl<T: TickSource + ?Sized> TickSource for Box<T> {
    fn next_tick(&mut self) -> Option<Tick> {
        (**self).next_tick()
    }
}

/// The stochastic process driving a [`SyntheticFeed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriceProcess {
    /// Geometric Brownian motion with per-step drift `mu` and volatility
    /// `sigma` (fractions of price per step).
    GeometricBrownian {
        /// Drift per step.
        mu: f64,
        /// Volatility per step.
        sigma: f64,
    },
    /// Ornstein–Uhlenbeck mean reversion towards `mean` with reversion
    /// speed `theta` and noise `sigma` (absolute price units).
    OrnsteinUhlenbeck {
        /// Long-run mean.
        mean: f64,
        /// Reversion speed per step (0–1).
        theta: f64,
        /// Noise standard deviation per step.
        sigma: f64,
    },
}

/// Deterministic synthetic tick feed (one tick per `interval`, like the
/// paper's 1 Hz OANDA feed).
///
/// # Examples
///
/// ```
/// use rtseed_trading::market::{PriceProcess, SyntheticFeed, TickSource};
///
/// let mut feed = SyntheticFeed::eur_usd(42);
/// let first = feed.next_tick().unwrap();
/// assert!(first.bid < first.ask);
/// ```
#[derive(Debug)]
pub struct SyntheticFeed {
    rng: StdRng,
    process: PriceProcess,
    price: f64,
    half_spread: f64,
    interval: Span,
    now: Time,
    remaining: Option<u64>,
}

impl SyntheticFeed {
    /// Creates a feed starting at `initial` with the given process,
    /// half-spread, tick interval and optional tick budget.
    pub fn new(
        seed: u64,
        process: PriceProcess,
        initial: f64,
        half_spread: f64,
        interval: Span,
        remaining: Option<u64>,
    ) -> SyntheticFeed {
        assert!(initial > 0.0, "initial price must be positive");
        assert!(half_spread >= 0.0, "half-spread must be non-negative");
        assert!(!interval.is_zero(), "tick interval must be positive");
        SyntheticFeed {
            rng: StdRng::seed_from_u64(seed),
            process,
            price: initial,
            half_spread,
            interval,
            now: Time::ZERO,
            remaining,
        }
    }

    /// An EUR/USD-like feed: 1 tick/s, mild mean reversion around 1.10,
    /// ~1 pip spread — the paper's motivating data source.
    pub fn eur_usd(seed: u64) -> SyntheticFeed {
        SyntheticFeed::new(
            seed,
            PriceProcess::OrnsteinUhlenbeck {
                mean: 1.10,
                theta: 0.05,
                sigma: 0.0008,
            },
            1.10,
            0.00005,
            Span::from_secs(1),
            None,
        )
    }

    /// Normal-ish sample via a 12-uniform sum (Irwin–Hall, variance 1).
    fn gauss(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.rng.random::<f64>();
        }
        acc - 6.0
    }

    fn step(&mut self) {
        let z = self.gauss();
        match self.process {
            PriceProcess::GeometricBrownian { mu, sigma } => {
                self.price *= 1.0 + mu + sigma * z;
            }
            PriceProcess::OrnsteinUhlenbeck { mean, theta, sigma } => {
                self.price += theta * (mean - self.price) + sigma * z;
            }
        }
        self.price = self.price.max(1e-9);
    }
}

impl TickSource for SyntheticFeed {
    fn next_tick(&mut self) -> Option<Tick> {
        if let Some(rem) = &mut self.remaining {
            if *rem == 0 {
                return None;
            }
            *rem -= 1;
        }
        self.step();
        let tick = Tick {
            at: self.now,
            bid: self.price - self.half_spread,
            ask: self.price + self.half_spread,
        };
        self.now += self.interval;
        Some(tick)
    }
}

/// Replays a recorded sequence of ticks.
#[derive(Debug, Clone)]
pub struct ReplayFeed {
    ticks: std::vec::IntoIter<Tick>,
}

impl ReplayFeed {
    /// Creates a replay source from recorded ticks.
    pub fn new(ticks: Vec<Tick>) -> ReplayFeed {
        ReplayFeed {
            ticks: ticks.into_iter(),
        }
    }
}

impl TickSource for ReplayFeed {
    fn next_tick(&mut self) -> Option<Tick> {
        self.ticks.next()
    }
}

/// Collects `n` ticks from a source (convenience for tests/benches).
pub fn collect_ticks(source: &mut impl TickSource, n: usize) -> Vec<Tick> {
    (0..n).map_while(|_| source.next_tick()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_accessors() {
        let t = Tick {
            at: Time::ZERO,
            bid: 1.0999,
            ask: 1.1001,
        };
        assert!((t.mid() - 1.1).abs() < 1e-12);
        assert!((t.spread() - 0.0002).abs() < 1e-12);
    }

    #[test]
    fn synthetic_feed_is_deterministic() {
        let a = collect_ticks(&mut SyntheticFeed::eur_usd(7), 100);
        let b = collect_ticks(&mut SyntheticFeed::eur_usd(7), 100);
        assert_eq!(a, b);
        let c = collect_ticks(&mut SyntheticFeed::eur_usd(8), 100);
        assert_ne!(a, c);
    }

    #[test]
    fn feed_cadence_matches_interval() {
        let ticks = collect_ticks(&mut SyntheticFeed::eur_usd(1), 10);
        for (i, t) in ticks.iter().enumerate() {
            assert_eq!(t.at, Time::ZERO + Span::from_secs(1) * i as u64);
        }
    }

    #[test]
    fn spread_is_always_positive() {
        let ticks = collect_ticks(&mut SyntheticFeed::eur_usd(3), 1000);
        assert!(ticks.iter().all(|t| t.spread() > 0.0));
        assert!(ticks.iter().all(|t| t.bid > 0.0));
    }

    #[test]
    fn ou_process_reverts_to_mean() {
        // Start far from the mean; after many steps the average of the
        // tail should be near the mean.
        let mut feed = SyntheticFeed::new(
            5,
            PriceProcess::OrnsteinUhlenbeck {
                mean: 1.10,
                theta: 0.1,
                sigma: 0.0005,
            },
            2.0,
            0.0,
            Span::from_secs(1),
            None,
        );
        let ticks = collect_ticks(&mut feed, 2000);
        let tail_mean: f64 =
            ticks[1000..].iter().map(Tick::mid).sum::<f64>() / 1000.0;
        assert!((tail_mean - 1.10).abs() < 0.02, "{tail_mean}");
    }

    #[test]
    fn gbm_drift_moves_price() {
        let mut feed = SyntheticFeed::new(
            9,
            PriceProcess::GeometricBrownian {
                mu: 0.001,
                sigma: 0.0001,
            },
            1.0,
            0.0,
            Span::from_secs(1),
            None,
        );
        let ticks = collect_ticks(&mut feed, 1000);
        assert!(
            ticks.last().unwrap().mid() > 2.0,
            "1.001^1000 ≈ 2.7, got {}",
            ticks.last().unwrap().mid()
        );
    }

    #[test]
    fn bounded_feed_exhausts() {
        let mut feed = SyntheticFeed::new(
            1,
            PriceProcess::GeometricBrownian { mu: 0.0, sigma: 0.0 },
            1.0,
            0.0,
            Span::from_secs(1),
            Some(3),
        );
        assert_eq!(collect_ticks(&mut feed, 10).len(), 3);
        assert!(feed.next_tick().is_none());
    }

    #[test]
    fn replay_feed_replays() {
        let ticks = collect_ticks(&mut SyntheticFeed::eur_usd(2), 5);
        let mut replay = ReplayFeed::new(ticks.clone());
        assert_eq!(collect_ticks(&mut replay, 10), ticks);
    }

    #[test]
    #[should_panic(expected = "initial price must be positive")]
    fn rejects_non_positive_initial() {
        let _ = SyntheticFeed::new(
            0,
            PriceProcess::GeometricBrownian { mu: 0.0, sigma: 0.0 },
            0.0,
            0.0,
            Span::from_secs(1),
            None,
        );
    }

    #[test]
    fn validate_accepts_sane_ticks() {
        let t = Tick {
            at: Time::from_nanos(10),
            bid: 1.0999,
            ask: 1.1001,
        };
        assert_eq!(t.validate(None), Ok(()));
        assert_eq!(t.validate(Some(Time::from_nanos(9))), Ok(()));
    }

    #[test]
    fn validate_rejects_corrupt_ticks() {
        let base = Tick {
            at: Time::from_nanos(10),
            bid: 1.0999,
            ask: 1.1001,
        };
        let nan = Tick { bid: f64::NAN, ..base };
        assert_eq!(nan.validate(None), Err(TickError::NonFinite));
        let inf = Tick { ask: f64::INFINITY, ..base };
        assert_eq!(inf.validate(None), Err(TickError::NonFinite));
        let neg = Tick { bid: -1.0, ask: 1.0, ..base };
        assert_eq!(neg.validate(None), Err(TickError::NonPositive));
        let crossed = Tick { bid: 1.2, ask: 1.1, ..base };
        assert_eq!(crossed.validate(None), Err(TickError::CrossedBook));
        assert_eq!(
            base.validate(Some(Time::from_nanos(10))),
            Err(TickError::OutOfOrder {
                last: Time::from_nanos(10),
                at: Time::from_nanos(10),
            }),
        );
        assert!(TickError::CrossedBook.to_string().contains("crossed"));
    }

    #[test]
    fn display() {
        let t = Tick {
            at: Time::ZERO,
            bid: 1.1,
            ask: 1.2,
        };
        assert!(t.to_string().contains("1.10000/1.20000"));
    }
}
