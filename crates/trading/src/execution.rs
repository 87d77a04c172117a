//! Paper-trading execution venue: orders, fills with spread and slippage,
//! position and P&L accounting — the "stock company" endpoint the paper's
//! wind-up part sends trade requests to (§II-A).

use core::fmt;

use rtseed_model::Time;

use crate::market::Tick;
use crate::strategy::Signal;

/// Order side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Buy the base currency.
    Buy,
    /// Sell the base currency.
    Sell,
}

impl Side {
    /// Converts a non-wait signal into a side.
    pub fn from_signal(signal: Signal) -> Option<Side> {
        match signal {
            Signal::Bid => Some(Side::Buy),
            Signal::Ask => Some(Side::Sell),
            Signal::Wait => None,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Buy => "buy",
            Side::Sell => "sell",
        })
    }
}

/// A market order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Order {
    /// Submission time.
    pub at: Time,
    /// Buy or sell.
    pub side: Side,
    /// Quantity in base-currency units.
    pub quantity: f64,
}

/// A fill returned by the venue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fill {
    /// The order that filled.
    pub order: Order,
    /// Executed price (includes spread and slippage).
    pub price: f64,
}

/// Venue behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionConfig {
    /// Extra adverse price movement per unit quantity (linear impact).
    pub slippage_per_unit: f64,
    /// Flat per-order commission, charged in quote currency.
    pub commission: f64,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            slippage_per_unit: 0.0,
            commission: 0.0,
        }
    }
}

/// Net position and realized P&L.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Position {
    /// Signed base-currency quantity (positive = long).
    pub quantity: f64,
    /// Volume-weighted average entry price of the open quantity.
    pub avg_price: f64,
    /// Realized profit in quote currency.
    pub realized_pnl: f64,
}

/// A paper-trading venue that fills market orders against the latest tick.
#[derive(Debug, Clone)]
pub struct PaperVenue {
    config: ExecutionConfig,
    last_tick: Option<Tick>,
    position: Position,
    fills: Vec<Fill>,
}

/// Error from order submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecutionError {
    /// No market data has been seen yet.
    NoMarket,
    /// The order quantity was zero, negative, or not finite.
    BadQuantity,
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::NoMarket => write!(f, "no market data yet"),
            ExecutionError::BadQuantity => write!(f, "order quantity must be positive and finite"),
        }
    }
}

impl std::error::Error for ExecutionError {}

impl PaperVenue {
    /// Creates a venue with the given behaviour.
    pub fn new(config: ExecutionConfig) -> PaperVenue {
        PaperVenue {
            config,
            last_tick: None,
            position: Position::default(),
            fills: Vec::new(),
        }
    }

    /// Publishes a tick to the venue (order fills use the latest one).
    pub fn on_tick(&mut self, tick: Tick) {
        self.last_tick = Some(tick);
    }

    /// Submits a market order.
    ///
    /// # Errors
    ///
    /// * [`ExecutionError::NoMarket`] before the first tick;
    /// * [`ExecutionError::BadQuantity`] for non-positive or non-finite
    ///   quantities.
    pub fn submit(&mut self, order: Order) -> Result<Fill, ExecutionError> {
        let tick = self.last_tick.ok_or(ExecutionError::NoMarket)?;
        if !order.quantity.is_finite() || order.quantity <= 0.0 {
            return Err(ExecutionError::BadQuantity);
        }
        let impact = self.config.slippage_per_unit * order.quantity;
        let price = match order.side {
            Side::Buy => tick.ask + impact,
            Side::Sell => tick.bid - impact,
        };
        let fill = Fill { order, price };
        self.apply_fill(&fill);
        self.position.realized_pnl -= self.config.commission;
        self.fills.push(fill);
        Ok(fill)
    }

    fn apply_fill(&mut self, fill: &Fill) {
        let signed = match fill.order.side {
            Side::Buy => fill.order.quantity,
            Side::Sell => -fill.order.quantity,
        };
        let pos = &mut self.position;
        if pos.quantity == 0.0 || pos.quantity.signum() == signed.signum() {
            // Opening or adding: update the volume-weighted entry.
            let total = pos.quantity + signed;
            pos.avg_price = (pos.avg_price * pos.quantity.abs()
                + fill.price * signed.abs())
                / total.abs();
            pos.quantity = total;
        } else {
            // Reducing, closing, or flipping.
            let closing = signed.abs().min(pos.quantity.abs());
            let direction = pos.quantity.signum();
            pos.realized_pnl += closing * direction * (fill.price - pos.avg_price);
            let remainder = pos.quantity + signed;
            if remainder == 0.0 {
                pos.quantity = 0.0;
                pos.avg_price = 0.0;
            } else if remainder.signum() == direction {
                pos.quantity = remainder; // partially closed, entry keeps
            } else {
                pos.quantity = remainder; // flipped: new entry at fill
                pos.avg_price = fill.price;
            }
        }
    }

    /// Current position.
    pub fn position(&self) -> &Position {
        &self.position
    }

    /// All fills in submission order.
    pub fn fills(&self) -> &[Fill] {
        &self.fills
    }

    /// Total equity against the latest mid: realized P&L plus the open
    /// quantity marked to market.
    pub fn equity(&self) -> f64 {
        let pos = &self.position;
        let unreal = self
            .last_tick
            .map_or(0.0, |t| pos.quantity * (t.mid() - pos.avg_price));
        pos.realized_pnl + unreal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::Span;

    fn tick(i: u64, bid: f64, ask: f64) -> Tick {
        Tick {
            at: Time::ZERO + Span::from_secs(i),
            bid,
            ask,
        }
    }

    fn venue() -> PaperVenue {
        PaperVenue::new(ExecutionConfig::default())
    }

    fn order(side: Side, qty: f64) -> Order {
        Order {
            at: Time::ZERO,
            side,
            quantity: qty,
        }
    }

    #[test]
    fn rejects_orders_without_market() {
        let mut v = venue();
        assert_eq!(
            v.submit(order(Side::Buy, 1.0)).unwrap_err(),
            ExecutionError::NoMarket
        );
    }

    #[test]
    fn rejects_bad_quantity() {
        let mut v = venue();
        v.on_tick(tick(0, 1.0, 1.0002));
        for q in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                v.submit(order(Side::Buy, q)).unwrap_err(),
                ExecutionError::BadQuantity,
                "{q}"
            );
        }
    }

    #[test]
    fn buys_at_ask_sells_at_bid() {
        let mut v = venue();
        v.on_tick(tick(0, 1.0998, 1.1002));
        let buy = v.submit(order(Side::Buy, 1.0)).unwrap();
        assert_eq!(buy.price, 1.1002);
        let sell = v.submit(order(Side::Sell, 1.0)).unwrap();
        assert_eq!(sell.price, 1.0998);
        // Round trip costs the spread.
        assert!((v.position().realized_pnl - (1.0998 - 1.1002)).abs() < 1e-12);
        assert_eq!(v.position().quantity, 0.0);
    }

    #[test]
    fn profitable_round_trip() {
        let mut v = venue();
        v.on_tick(tick(0, 1.1000, 1.1000));
        v.submit(order(Side::Buy, 2.0)).unwrap();
        v.on_tick(tick(1, 1.1100, 1.1100));
        v.submit(order(Side::Sell, 2.0)).unwrap();
        assert!((v.position().realized_pnl - 0.02).abs() < 1e-12);
        assert_eq!(v.fills().len(), 2);
    }

    #[test]
    fn averaging_in_updates_entry() {
        let mut v = venue();
        v.on_tick(tick(0, 1.0, 1.0));
        v.submit(order(Side::Buy, 1.0)).unwrap();
        v.on_tick(tick(1, 1.2, 1.2));
        v.submit(order(Side::Buy, 1.0)).unwrap();
        assert!((v.position().avg_price - 1.1).abs() < 1e-12);
        assert_eq!(v.position().quantity, 2.0);
        // Marked at the 1.2 mid: 2 × (1.2 − 1.1) unrealized.
        assert!((v.equity() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn partial_close_realizes_proportionally() {
        let mut v = venue();
        v.on_tick(tick(0, 1.0, 1.0));
        v.submit(order(Side::Buy, 4.0)).unwrap();
        v.on_tick(tick(1, 1.5, 1.5));
        v.submit(order(Side::Sell, 1.0)).unwrap();
        assert!((v.position().realized_pnl - 0.5).abs() < 1e-12);
        assert_eq!(v.position().quantity, 3.0);
        assert!((v.position().avg_price - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flip_opens_opposite_position_at_fill() {
        let mut v = venue();
        v.on_tick(tick(0, 1.0, 1.0));
        v.submit(order(Side::Buy, 1.0)).unwrap();
        v.on_tick(tick(1, 1.2, 1.2));
        v.submit(order(Side::Sell, 3.0)).unwrap();
        assert!((v.position().realized_pnl - 0.2).abs() < 1e-12);
        assert_eq!(v.position().quantity, -2.0);
        assert!((v.position().avg_price - 1.2).abs() < 1e-12);
    }

    #[test]
    fn short_positions_profit_from_falls() {
        let mut v = venue();
        v.on_tick(tick(0, 2.0, 2.0));
        v.submit(order(Side::Sell, 1.0)).unwrap();
        v.on_tick(tick(1, 1.5, 1.5));
        v.submit(order(Side::Buy, 1.0)).unwrap();
        assert!((v.position().realized_pnl - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slippage_and_commission_apply() {
        let mut v = PaperVenue::new(ExecutionConfig {
            slippage_per_unit: 0.01,
            commission: 0.5,
        });
        v.on_tick(tick(0, 1.0, 1.0));
        let fill = v.submit(order(Side::Buy, 2.0)).unwrap();
        assert!((fill.price - 1.02).abs() < 1e-12);
        assert!((v.position().realized_pnl - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn equity_marks_to_market() {
        let mut v = venue();
        v.on_tick(tick(0, 1.0, 1.0));
        v.submit(order(Side::Buy, 1.0)).unwrap();
        v.on_tick(tick(1, 1.3, 1.3));
        assert!((v.equity() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn side_from_signal() {
        assert_eq!(Side::from_signal(Signal::Bid), Some(Side::Buy));
        assert_eq!(Side::from_signal(Signal::Ask), Some(Side::Sell));
        assert_eq!(Side::from_signal(Signal::Wait), None);
        assert_eq!(Side::Buy.to_string(), "buy");
    }
}
