//! # rtseed-trading
//!
//! The real-time trading substrate the paper motivates RT-Seed with (§I,
//! §II-A): everything needed to build an automated trading system on top
//! of the parallel-extended imprecise computation model.
//!
//! * [`market`] — synthetic market data (the paper's OANDA feed provides
//!   one EUR/USD rate per second; we generate statistically similar ticks
//!   with seeded GBM / Ornstein–Uhlenbeck processes, plus a replay source);
//! * [`indicators`] — streaming **technical analysis**: SMA, EMA,
//!   Bollinger Bands (the paper's §II-A example), RSI, MACD;
//! * [`fundamentals`] — synthetic **fundamental analysis**: periodic macro
//!   releases (GDP growth, rate differential) and a bias score;
//! * [`strategy`] — trading signals and strategies, plus a QoS-aware
//!   aggregator that combines whatever analyses *completed or partially
//!   completed* before the optional deadline (§II-A: "the wind-up part
//!   collects the results from parallel optional parts to make a trading
//!   decision");
//! * [`execution`] — a paper-trading venue with spread/slippage and P&L
//!   accounting;
//! * [`fault`] — deterministic feed-fault injection (stalls, gaps,
//!   out-of-order and NaN ticks) plus the defence: a validating stall
//!   watchdog with bounded retry/backoff that escalates sustained failure
//!   to a kill switch, after which the feed delivers no tick;
//! * [`imprecise`] — the adapter that maps a full trading pipeline onto an
//!   RT-Seed task: mandatory = ingest tick, parallel optional = analyses,
//!   wind-up = aggregate and trade.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod execution;
pub mod fault;
pub mod fundamentals;
pub mod imprecise;
pub mod indicators;
pub mod market;
pub mod strategy;

pub use execution::{ExecutionConfig, Fill, Order, PaperVenue, Position, Side};
pub use fault::{
    FaultyFeed, FeedError, FeedFaultPlan, FeedFaultReport, FeedWatchdog,
    KillSwitch, WatchdogConfig,
};
pub use market::{PriceProcess, SyntheticFeed, Tick, TickError, TickSource};
pub use strategy::{Signal, SignalAggregator, Strategy};
