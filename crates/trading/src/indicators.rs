//! Streaming technical-analysis indicators.
//!
//! All indicators are *incremental*: push one price (or tick) at a time,
//! read the current value in O(1). This matches the optional-part usage
//! pattern — an analysis refines its output until the optional deadline
//! terminates it (paper §II-A's Bollinger Bands example).

use std::collections::VecDeque;

/// Simple moving average over a fixed window.
#[derive(Debug, Clone)]
pub struct Sma {
    window: usize,
    values: VecDeque<f64>,
    sum: f64,
}

impl Sma {
    /// Creates an SMA with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Sma {
        assert!(window > 0, "window must be positive");
        Sma {
            window,
            values: VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }

    /// Pushes a price.
    pub fn push(&mut self, price: f64) {
        self.values.push_back(price);
        self.sum += price;
        if self.values.len() > self.window {
            self.sum -= self.values.pop_front().expect("non-empty");
        }
    }

    /// Current average, or `None` until the window has filled.
    pub fn value(&self) -> Option<f64> {
        (self.values.len() == self.window).then(|| self.sum / self.window as f64)
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` before any sample was pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Exponential moving average with the conventional `2/(n+1)` smoothing.
#[derive(Debug, Clone)]
pub struct Ema {
    alpha: f64,
    value: Option<f64>,
}

impl Ema {
    /// Creates an EMA equivalent to an `n`-period average.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Ema {
        assert!(n > 0, "period must be positive");
        Ema {
            alpha: 2.0 / (n as f64 + 1.0),
            value: None,
        }
    }

    /// Pushes a price.
    pub fn push(&mut self, price: f64) {
        self.value = Some(match self.value {
            None => price,
            Some(prev) => prev + self.alpha * (price - prev),
        });
    }

    /// Current EMA (first pushed price seeds it).
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Bollinger Bands: SMA ± `k` standard deviations (paper §II-A's technical
/// analysis example).
#[derive(Debug, Clone)]
pub struct BollingerBands {
    window: usize,
    k: f64,
    values: VecDeque<f64>,
    sum: f64,
    sum_sq: f64,
}

/// A Bollinger Bands reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bands {
    /// Lower band (mean − k·σ).
    pub lower: f64,
    /// The moving average.
    pub middle: f64,
    /// Upper band (mean + k·σ).
    pub upper: f64,
}

impl BollingerBands {
    /// Creates bands over `window` periods at `k` standard deviations
    /// (the classic setting is 20 periods, k = 2).
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` or `k` is not finite and positive.
    pub fn new(window: usize, k: f64) -> BollingerBands {
        assert!(window >= 2, "window must be at least 2");
        assert!(k.is_finite() && k > 0.0, "k must be positive");
        BollingerBands {
            window,
            k,
            values: VecDeque::with_capacity(window),
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Pushes a price.
    pub fn push(&mut self, price: f64) {
        self.values.push_back(price);
        self.sum += price;
        self.sum_sq += price * price;
        if self.values.len() > self.window {
            let old = self.values.pop_front().expect("non-empty");
            self.sum -= old;
            self.sum_sq -= old * old;
        }
    }

    /// Current bands, or `None` until the window has filled.
    pub fn value(&self) -> Option<Bands> {
        if self.values.len() < self.window {
            return None;
        }
        let n = self.window as f64;
        let mean = self.sum / n;
        let var = (self.sum_sq / n - mean * mean).max(0.0);
        let sd = var.sqrt();
        Some(Bands {
            lower: mean - self.k * sd,
            middle: mean,
            upper: mean + self.k * sd,
        })
    }
}

/// Relative Strength Index (Wilder's smoothing).
#[derive(Debug, Clone)]
pub struct Rsi {
    period: usize,
    prev: Option<f64>,
    avg_gain: f64,
    avg_loss: f64,
    seen: usize,
}

impl Rsi {
    /// Creates an RSI over `period` price changes (classically 14).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: usize) -> Rsi {
        assert!(period > 0, "period must be positive");
        Rsi {
            period,
            prev: None,
            avg_gain: 0.0,
            avg_loss: 0.0,
            seen: 0,
        }
    }

    /// Pushes a price.
    pub fn push(&mut self, price: f64) {
        let Some(prev) = self.prev.replace(price) else {
            return;
        };
        let change = price - prev;
        let (gain, loss) = if change >= 0.0 {
            (change, 0.0)
        } else {
            (0.0, -change)
        };
        self.seen += 1;
        if self.seen <= self.period {
            // Accumulate the initial simple averages.
            self.avg_gain += gain / self.period as f64;
            self.avg_loss += loss / self.period as f64;
        } else {
            let p = self.period as f64;
            self.avg_gain = (self.avg_gain * (p - 1.0) + gain) / p;
            self.avg_loss = (self.avg_loss * (p - 1.0) + loss) / p;
        }
    }

    /// Current RSI in 0–100, or `None` until `period` changes were seen.
    pub fn value(&self) -> Option<f64> {
        if self.seen < self.period {
            return None;
        }
        if self.avg_loss == 0.0 {
            return Some(100.0);
        }
        let rs = self.avg_gain / self.avg_loss;
        Some(100.0 - 100.0 / (1.0 + rs))
    }
}

/// MACD: fast EMA − slow EMA, with a signal-line EMA of the difference.
#[derive(Debug, Clone)]
pub struct Macd {
    fast: Ema,
    slow: Ema,
    signal: Ema,
    pushes: usize,
    slow_n: usize,
}

/// A MACD reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacdValue {
    /// Fast EMA − slow EMA.
    pub macd: f64,
    /// EMA of the MACD line.
    pub signal: f64,
    /// `macd − signal`.
    pub histogram: f64,
}

impl Macd {
    /// Creates a MACD with the given periods (classically 12/26/9).
    ///
    /// # Panics
    ///
    /// Panics if any period is zero or `fast >= slow`.
    pub fn new(fast: usize, slow: usize, signal: usize) -> Macd {
        assert!(fast > 0 && slow > 0 && signal > 0, "periods must be positive");
        assert!(fast < slow, "fast period must be shorter than slow");
        Macd {
            fast: Ema::new(fast),
            slow: Ema::new(slow),
            signal: Ema::new(signal),
            pushes: 0,
            slow_n: slow,
        }
    }

    /// The classic 12/26/9 configuration.
    pub fn standard() -> Macd {
        Macd::new(12, 26, 9)
    }

    /// Pushes a price.
    pub fn push(&mut self, price: f64) {
        self.fast.push(price);
        self.slow.push(price);
        self.pushes += 1;
        if let (Some(f), Some(s)) = (self.fast.value(), self.slow.value()) {
            self.signal.push(f - s);
        }
    }

    /// Current MACD reading, or `None` until the slow period has filled.
    pub fn value(&self) -> Option<MacdValue> {
        if self.pushes < self.slow_n {
            return None;
        }
        let macd = self.fast.value()? - self.slow.value()?;
        let signal = self.signal.value()?;
        Some(MacdValue {
            macd,
            signal,
            histogram: macd - signal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_all(ind: &mut impl FnMut(f64), prices: &[f64]) {
        for &p in prices {
            ind(p);
        }
    }

    #[test]
    fn sma_fills_then_slides() {
        let mut sma = Sma::new(3);
        assert!(sma.is_empty());
        sma.push(1.0);
        sma.push(2.0);
        assert_eq!(sma.value(), None);
        sma.push(3.0);
        assert_eq!(sma.value(), Some(2.0));
        sma.push(7.0); // window = [2, 3, 7]
        assert_eq!(sma.value(), Some(4.0));
        assert_eq!(sma.len(), 3);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn sma_rejects_zero_window() {
        let _ = Sma::new(0);
    }

    #[test]
    fn ema_seeds_and_smooths() {
        let mut ema = Ema::new(3); // alpha = 0.5
        assert_eq!(ema.value(), None);
        ema.push(10.0);
        assert_eq!(ema.value(), Some(10.0));
        ema.push(20.0);
        assert_eq!(ema.value(), Some(15.0));
        ema.push(15.0);
        assert_eq!(ema.value(), Some(15.0));
    }

    #[test]
    fn ema_converges_to_constant_input() {
        let mut ema = Ema::new(10);
        push_all(&mut |p| ema.push(p), &[5.0; 200]);
        assert!((ema.value().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bollinger_band_ordering_and_symmetry() {
        let mut bb = BollingerBands::new(5, 2.0);
        push_all(&mut |p| bb.push(p), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let bands = bb.value().unwrap();
        assert!(bands.lower < bands.middle && bands.middle < bands.upper);
        assert!((bands.middle - 3.0).abs() < 1e-12);
        let up = bands.upper - bands.middle;
        let down = bands.middle - bands.lower;
        assert!((up - down).abs() < 1e-12);
        // σ of [1..5] (population) = √2.
        assert!((up - 2.0 * 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn bollinger_constant_prices_collapse() {
        let mut bb = BollingerBands::new(4, 2.0);
        push_all(&mut |p| bb.push(p), &[7.0; 4]);
        let bands = bb.value().unwrap();
        assert!((bands.upper - bands.lower).abs() < 1e-9);
    }

    #[test]
    fn rsi_extremes() {
        // Monotone rises → RSI 100.
        let mut rsi = Rsi::new(5);
        push_all(&mut |p| rsi.push(p), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(rsi.value(), Some(100.0));
        // Monotone falls → RSI 0.
        let mut rsi = Rsi::new(5);
        push_all(&mut |p| rsi.push(p), &[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert!((rsi.value().unwrap() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn rsi_balanced_is_midscale() {
        // Alternating equal gains/losses oscillate around 50: Wilder
        // smoothing puts the value a few points below 50 right after a
        // loss and symmetrically above right after a gain.
        let mut rsi = Rsi::new(4);
        push_all(&mut |p| rsi.push(p), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0]);
        let after_loss = rsi.value().unwrap();
        assert!((40.0..50.0).contains(&after_loss), "{after_loss}");
        rsi.push(2.0);
        let after_gain = rsi.value().unwrap();
        assert!((50.0..62.0).contains(&after_gain), "{after_gain}");
        // Symmetric around the midline.
        assert!((after_loss + after_gain - 100.0).abs() < 10.0);
    }

    #[test]
    fn rsi_bounded() {
        let mut rsi = Rsi::new(14);
        let mut price = 100.0;
        for i in 0..500 {
            price += if i % 3 == 0 { -0.7 } else { 0.4 };
            rsi.push(price);
            if let Some(v) = rsi.value() {
                assert!((0.0..=100.0).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn macd_crossover_sign() {
        let mut macd = Macd::standard();
        // A long decline then a sharp rally: MACD turns positive and
        // crosses above its signal.
        for i in 0..60 {
            macd.push(100.0 - i as f64 * 0.5);
        }
        let falling = macd.value().unwrap();
        assert!(falling.macd < 0.0);
        for i in 0..60 {
            macd.push(70.0 + i as f64 * 1.5);
        }
        let rising = macd.value().unwrap();
        assert!(rising.macd > 0.0);
        assert!(rising.histogram > 0.0, "MACD should lead its signal");
    }

    #[test]
    #[should_panic(expected = "fast period must be shorter")]
    fn macd_rejects_inverted_periods() {
        let _ = Macd::new(26, 12, 9);
    }
}
