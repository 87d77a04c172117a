//! Synthetic fundamental analysis (paper §II-A: "fundamental analysis
//! makes forecasts using the financial statements of companies and/or
//! countries", e.g. GDP).
//!
//! A [`MacroFeed`] emits periodic releases of macro indicators for the two
//! economies of a currency pair; [`FundamentalModel`] folds releases into a
//! bias score in [−1, 1] interpretable as "base currency should
//! appreciate (+) / depreciate (−)".

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtseed_model::{Span, Time};

/// A macro-economic indicator type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacroIndicator {
    /// Annualized GDP growth (percent).
    GdpGrowth,
    /// Policy interest rate (percent).
    InterestRate,
    /// Unemployment rate (percent).
    Unemployment,
    /// Year-over-year inflation (percent).
    Inflation,
}

impl MacroIndicator {
    /// All indicator kinds.
    pub const ALL: [MacroIndicator; 4] = [
        MacroIndicator::GdpGrowth,
        MacroIndicator::InterestRate,
        MacroIndicator::Unemployment,
        MacroIndicator::Inflation,
    ];
}

/// Which economy of the pair a release concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Economy {
    /// The base currency's economy (EUR in EUR/USD).
    Base,
    /// The quote currency's economy (USD in EUR/USD).
    Quote,
}

/// One released data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroRelease {
    /// Release timestamp.
    pub at: Time,
    /// Which economy.
    pub economy: Economy,
    /// Which indicator.
    pub indicator: MacroIndicator,
    /// Released value (percent).
    pub value: f64,
    /// Consensus expectation (percent); the surprise is `value − expected`.
    pub expected: f64,
}

impl MacroRelease {
    /// The release surprise, `value − expected`.
    pub fn surprise(&self) -> f64 {
        self.value - self.expected
    }
}

/// Deterministic synthetic stream of macro releases.
#[derive(Debug)]
pub struct MacroFeed {
    rng: StdRng,
    interval: Span,
    now: Time,
    state: [[f64; 4]; 2],
}

impl MacroFeed {
    /// Creates a feed releasing one indicator every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(seed: u64, interval: Span) -> MacroFeed {
        assert!(!interval.is_zero(), "release interval must be positive");
        MacroFeed {
            rng: StdRng::seed_from_u64(seed),
            interval,
            now: Time::ZERO,
            // Plausible starting macro state: [gdp, rate, unemp, infl].
            state: [[1.5, 2.0, 6.0, 2.0], [2.0, 2.5, 4.5, 2.2]],
        }
    }

    /// Produces the next release.
    pub fn next_release(&mut self) -> MacroRelease {
        let econ_idx = usize::from(self.rng.random::<bool>());
        let ind_idx = (self.rng.random::<u32>() % 4) as usize;
        let drift: f64 = (self.rng.random::<f64>() - 0.5) * 0.4;
        let expected = self.state[econ_idx][ind_idx];
        let value = (expected + drift).clamp(-5.0, 25.0);
        self.state[econ_idx][ind_idx] = value;
        let at = self.now;
        self.now += self.interval;
        MacroRelease {
            at,
            economy: if econ_idx == 0 {
                Economy::Base
            } else {
                Economy::Quote
            },
            indicator: MacroIndicator::ALL[ind_idx],
            value,
            expected,
        }
    }
}

/// Folds macro releases into a directional bias for the base currency.
#[derive(Debug, Clone, Default)]
pub struct FundamentalModel {
    base_score: f64,
    quote_score: f64,
    releases: usize,
}

impl FundamentalModel {
    /// An empty model (zero bias).
    pub fn new() -> FundamentalModel {
        FundamentalModel::default()
    }

    /// Ingests one release. Growth/rate/inflation surprises strengthen an
    /// economy's currency; unemployment surprises weaken it.
    pub fn ingest(&mut self, release: &MacroRelease) {
        let s = release.surprise();
        let contribution = match release.indicator {
            MacroIndicator::GdpGrowth => s * 1.0,
            MacroIndicator::InterestRate => s * 1.5,
            MacroIndicator::Inflation => s * 0.5,
            MacroIndicator::Unemployment => -s * 0.8,
        };
        match release.economy {
            Economy::Base => self.base_score += contribution,
            Economy::Quote => self.quote_score += contribution,
        }
        self.releases += 1;
    }

    /// Number of releases ingested.
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// Directional bias for the base currency in [−1, 1]: positive means
    /// the base should appreciate (buy), negative depreciate (sell).
    pub fn bias(&self) -> f64 {
        let diff = self.base_score - self.quote_score;
        diff.tanh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn release(economy: Economy, indicator: MacroIndicator, surprise: f64) -> MacroRelease {
        MacroRelease {
            at: Time::ZERO,
            economy,
            indicator,
            value: 2.0 + surprise,
            expected: 2.0,
        }
    }

    #[test]
    fn surprise_is_value_minus_expected() {
        let r = release(Economy::Base, MacroIndicator::GdpGrowth, 0.3);
        assert!((r.surprise() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn feed_is_deterministic_and_periodic() {
        let mut a = MacroFeed::new(11, Span::from_secs(60));
        let mut b = MacroFeed::new(11, Span::from_secs(60));
        for i in 0..50 {
            let ra = a.next_release();
            let rb = b.next_release();
            assert_eq!(ra, rb);
            assert_eq!(ra.at, Time::ZERO + Span::from_secs(60) * i);
        }
    }

    #[test]
    fn feed_values_stay_plausible() {
        let mut feed = MacroFeed::new(3, Span::from_secs(1));
        for _ in 0..5000 {
            let r = feed.next_release();
            assert!((-5.0..=25.0).contains(&r.value), "{r:?}");
        }
    }

    #[test]
    fn positive_base_growth_surprise_buys_base() {
        let mut m = FundamentalModel::new();
        m.ingest(&release(Economy::Base, MacroIndicator::GdpGrowth, 1.0));
        assert!(m.bias() > 0.0);
    }

    #[test]
    fn positive_quote_rate_surprise_sells_base() {
        let mut m = FundamentalModel::new();
        m.ingest(&release(Economy::Quote, MacroIndicator::InterestRate, 1.0));
        assert!(m.bias() < 0.0);
    }

    #[test]
    fn unemployment_surprise_inverts() {
        let mut m = FundamentalModel::new();
        m.ingest(&release(Economy::Base, MacroIndicator::Unemployment, 1.0));
        assert!(m.bias() < 0.0, "higher unemployment weakens the base");
    }

    #[test]
    fn bias_is_bounded_and_saturating() {
        let mut m = FundamentalModel::new();
        for _ in 0..100 {
            m.ingest(&release(Economy::Base, MacroIndicator::InterestRate, 2.0));
        }
        assert!(m.bias() <= 1.0 && m.bias() > 0.99);
        assert_eq!(m.releases(), 100);
    }

    #[test]
    fn symmetric_surprises_cancel() {
        let mut m = FundamentalModel::new();
        m.ingest(&release(Economy::Base, MacroIndicator::GdpGrowth, 0.5));
        m.ingest(&release(Economy::Quote, MacroIndicator::GdpGrowth, 0.5));
        assert!(m.bias().abs() < 1e-12);
    }
}
