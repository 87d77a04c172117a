//! Trading signals, strategies, and the QoS-aware aggregator.
//!
//! The paper's wind-up part "collects the results from parallel optional
//! parts to make a trading decision and sends a trade request (bid or ask)
//! … or takes a wait-and-see attitude" (§II-A). Each optional part runs
//! one [`Strategy`]; at the optional deadline whatever opinions exist are
//! combined by [`SignalAggregator`] — analyses that were *discarded*
//! simply abstain, which is exactly how imprecision degrades QoS without
//! breaking correctness.

use core::fmt;

use crate::fundamentals::FundamentalModel;
use crate::indicators::{BollingerBands, Macd, Rsi};
use crate::market::Tick;

/// A trading decision for the next period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Buy the base currency (lift the ask).
    Bid,
    /// Sell the base currency (hit the bid).
    Ask,
    /// Wait and see — no trade (the paper's third outcome).
    Wait,
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Signal::Bid => "bid",
            Signal::Ask => "ask",
            Signal::Wait => "wait",
        };
        f.write_str(s)
    }
}

/// An analysis that consumes ticks and produces an opinion.
pub trait Strategy: Send {
    /// Ingests one tick.
    fn on_tick(&mut self, tick: &Tick);
    /// The current opinion, or `None` while warming up.
    fn signal(&self) -> Option<Signal>;
    /// Short name for reports.
    fn name(&self) -> &str;
}

/// Mean-reversion on Bollinger Bands: price above the upper band → sell,
/// below the lower band → buy (the paper's §II-A technical example).
#[derive(Debug)]
pub struct BollingerReversion {
    bands: BollingerBands,
    last: Option<f64>,
}

impl BollingerReversion {
    /// The classic 20-period, 2σ configuration.
    pub fn standard() -> BollingerReversion {
        BollingerReversion::new(20, 2.0)
    }

    /// Custom window and width.
    pub fn new(window: usize, k: f64) -> BollingerReversion {
        BollingerReversion {
            bands: BollingerBands::new(window, k),
            last: None,
        }
    }
}

impl Strategy for BollingerReversion {
    fn on_tick(&mut self, tick: &Tick) {
        let mid = tick.mid();
        self.bands.push(mid);
        self.last = Some(mid);
    }

    fn signal(&self) -> Option<Signal> {
        let bands = self.bands.value()?;
        let last = self.last?;
        Some(if last > bands.upper {
            Signal::Ask
        } else if last < bands.lower {
            Signal::Bid
        } else {
            Signal::Wait
        })
    }

    fn name(&self) -> &str {
        "bollinger-reversion"
    }
}

/// Momentum on the MACD histogram sign.
#[derive(Debug)]
pub struct MacdMomentum {
    macd: Macd,
    threshold: f64,
}

impl MacdMomentum {
    /// Standard 12/26/9 MACD; `threshold` suppresses noise trades.
    pub fn new(threshold: f64) -> MacdMomentum {
        MacdMomentum {
            macd: Macd::standard(),
            threshold,
        }
    }
}

impl Strategy for MacdMomentum {
    fn on_tick(&mut self, tick: &Tick) {
        self.macd.push(tick.mid());
    }

    fn signal(&self) -> Option<Signal> {
        let v = self.macd.value()?;
        Some(if v.histogram > self.threshold {
            Signal::Bid
        } else if v.histogram < -self.threshold {
            Signal::Ask
        } else {
            Signal::Wait
        })
    }

    fn name(&self) -> &str {
        "macd-momentum"
    }
}

/// Contrarian RSI: overbought (≥ 70) → sell, oversold (≤ 30) → buy.
#[derive(Debug)]
pub struct RsiContrarian {
    rsi: Rsi,
}

impl RsiContrarian {
    /// The classic 14-period RSI.
    pub fn standard() -> RsiContrarian {
        RsiContrarian { rsi: Rsi::new(14) }
    }
}

impl Strategy for RsiContrarian {
    fn on_tick(&mut self, tick: &Tick) {
        self.rsi.push(tick.mid());
    }

    fn signal(&self) -> Option<Signal> {
        let v = self.rsi.value()?;
        Some(if v >= 70.0 {
            Signal::Ask
        } else if v <= 30.0 {
            Signal::Bid
        } else {
            Signal::Wait
        })
    }

    fn name(&self) -> &str {
        "rsi-contrarian"
    }
}

/// Fundamental bias as a strategy (ticks are ignored; the bias comes from
/// a [`FundamentalModel`] updated by macro releases).
#[derive(Debug, Default)]
pub struct FundamentalBias {
    model: FundamentalModel,
    threshold: f64,
}

impl FundamentalBias {
    /// Creates a bias strategy; |bias| below `threshold` means wait.
    pub fn new(threshold: f64) -> FundamentalBias {
        FundamentalBias {
            model: FundamentalModel::new(),
            threshold,
        }
    }

    /// Mutable access to the underlying model (feed macro releases here).
    pub fn model_mut(&mut self) -> &mut FundamentalModel {
        &mut self.model
    }
}

impl Strategy for FundamentalBias {
    fn on_tick(&mut self, _tick: &Tick) {}

    fn signal(&self) -> Option<Signal> {
        if self.model.releases() == 0 {
            return None;
        }
        let b = self.model.bias();
        Some(if b > self.threshold {
            Signal::Bid
        } else if b < -self.threshold {
            Signal::Ask
        } else {
            Signal::Wait
        })
    }

    fn name(&self) -> &str {
        "fundamental-bias"
    }
}

/// Combines the opinions that survived the optional deadline.
///
/// Majority voting over non-`Wait` opinions with a configurable quorum:
/// fewer than `quorum` expressed opinions (or a tie) → [`Signal::Wait`].
/// Discarded/warming-up analyses contribute nothing — QoS degradation
/// manifests as more frequent `Wait`s, never as a wrong-by-construction
/// trade.
#[derive(Debug, Clone)]
pub struct SignalAggregator {
    quorum: usize,
}

impl SignalAggregator {
    /// Creates an aggregator requiring at least `quorum` non-wait votes.
    ///
    /// # Panics
    ///
    /// Panics if `quorum` is zero.
    pub fn new(quorum: usize) -> SignalAggregator {
        assert!(quorum > 0, "quorum must be positive");
        SignalAggregator { quorum }
    }

    /// Aggregates the available opinions (absent = discarded/warming up).
    pub fn decide(&self, opinions: &[Option<Signal>]) -> Signal {
        self.tally(opinions.iter().copied())
    }

    /// The voting rule itself, over opinions read from wherever they live
    /// (a slice here, the trader's atomic slots in [`crate::imprecise`]).
    pub(crate) fn tally(&self, opinions: impl Iterator<Item = Option<Signal>>) -> Signal {
        let mut bids = 0usize;
        let mut asks = 0usize;
        for s in opinions.flatten() {
            match s {
                Signal::Bid => bids += 1,
                Signal::Ask => asks += 1,
                Signal::Wait => {}
            }
        }
        if bids + asks < self.quorum || bids == asks {
            Signal::Wait
        } else if bids > asks {
            Signal::Bid
        } else {
            Signal::Ask
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::{Span, Time};

    fn tick(i: u64, mid: f64) -> Tick {
        Tick {
            at: Time::ZERO + Span::from_secs(i),
            bid: mid - 0.00005,
            ask: mid + 0.00005,
        }
    }

    fn feed(strategy: &mut impl Strategy, prices: &[f64]) {
        for (i, &p) in prices.iter().enumerate() {
            strategy.on_tick(&tick(i as u64, p));
        }
    }

    #[test]
    fn bollinger_sells_above_upper_band() {
        let mut s = BollingerReversion::new(10, 2.0);
        let mut prices = vec![1.10; 10];
        feed(&mut s, &prices);
        assert_eq!(s.signal(), Some(Signal::Wait));
        // A violent spike above the (tight) bands.
        prices.push(1.20);
        feed(&mut s, &prices[10..]);
        assert_eq!(s.signal(), Some(Signal::Ask));
    }

    #[test]
    fn bollinger_buys_below_lower_band() {
        let mut s = BollingerReversion::new(10, 2.0);
        feed(&mut s, &[1.10; 10]);
        s.on_tick(&tick(10, 1.00));
        assert_eq!(s.signal(), Some(Signal::Bid));
    }

    #[test]
    fn bollinger_warms_up_silently() {
        let mut s = BollingerReversion::standard();
        feed(&mut s, &[1.1; 5]);
        assert_eq!(s.signal(), None);
        assert_eq!(s.name(), "bollinger-reversion");
    }

    #[test]
    fn macd_momentum_follows_trend() {
        let mut s = MacdMomentum::new(0.0001);
        let rising: Vec<f64> = (0..60).map(|i| 1.0 + i as f64 * 0.01).collect();
        feed(&mut s, &rising);
        assert_eq!(s.signal(), Some(Signal::Bid));
        let falling: Vec<f64> = (0..60).map(|i| 1.6 - i as f64 * 0.01).collect();
        feed(&mut s, &falling);
        assert_eq!(s.signal(), Some(Signal::Ask));
    }

    #[test]
    fn rsi_contrarian_fades_extremes() {
        let mut s = RsiContrarian::standard();
        let rising: Vec<f64> = (0..20).map(|i| 1.0 + i as f64 * 0.01).collect();
        feed(&mut s, &rising);
        assert_eq!(s.signal(), Some(Signal::Ask), "overbought → sell");
        let mut s = RsiContrarian::standard();
        let falling: Vec<f64> = (0..20).map(|i| 2.0 - i as f64 * 0.01).collect();
        feed(&mut s, &falling);
        assert_eq!(s.signal(), Some(Signal::Bid), "oversold → buy");
    }

    #[test]
    fn fundamental_bias_signals_from_releases() {
        use crate::fundamentals::{Economy, MacroIndicator, MacroRelease};
        let mut s = FundamentalBias::new(0.1);
        assert_eq!(s.signal(), None, "no releases yet");
        s.model_mut().ingest(&MacroRelease {
            at: Time::ZERO,
            economy: Economy::Base,
            indicator: MacroIndicator::InterestRate,
            value: 3.0,
            expected: 2.0,
        });
        assert_eq!(s.signal(), Some(Signal::Bid));
    }

    #[test]
    fn aggregator_majority() {
        let agg = SignalAggregator::new(1);
        assert_eq!(
            agg.decide(&[Some(Signal::Bid), Some(Signal::Bid), Some(Signal::Ask)]),
            Signal::Bid
        );
        assert_eq!(
            agg.decide(&[Some(Signal::Ask), Some(Signal::Ask), Some(Signal::Wait)]),
            Signal::Ask
        );
    }

    #[test]
    fn aggregator_tie_waits() {
        let agg = SignalAggregator::new(1);
        assert_eq!(
            agg.decide(&[Some(Signal::Bid), Some(Signal::Ask)]),
            Signal::Wait
        );
    }

    #[test]
    fn aggregator_quorum_enforced() {
        let agg = SignalAggregator::new(3);
        assert_eq!(
            agg.decide(&[Some(Signal::Bid), Some(Signal::Bid), None, None]),
            Signal::Wait,
            "two opinions below quorum of three"
        );
        assert_eq!(
            agg.decide(&[
                Some(Signal::Bid),
                Some(Signal::Bid),
                Some(Signal::Bid),
                Some(Signal::Ask)
            ]),
            Signal::Bid
        );
    }

    #[test]
    fn aggregator_all_discarded_waits() {
        let agg = SignalAggregator::new(1);
        assert_eq!(agg.decide(&[None, None, None]), Signal::Wait);
        assert_eq!(agg.decide(&[]), Signal::Wait);
    }

    #[test]
    #[should_panic(expected = "quorum must be positive")]
    fn aggregator_rejects_zero_quorum() {
        let _ = SignalAggregator::new(0);
    }

    #[test]
    fn signal_display() {
        assert_eq!(Signal::Bid.to_string(), "bid");
        assert_eq!(Signal::Ask.to_string(), "ask");
        assert_eq!(Signal::Wait.to_string(), "wait");
    }
}
