//! Fixed-footprint metrics: log₂-bucketed histograms for the paper's
//! measured quantities.
//!
//! [`MetricsRegistry`] aggregates the four middleware overheads
//! (Δm/Δb/Δs/Δe, Figs. 10–12), per-job response times, release jitter,
//! and per-job QoS levels. Everything is integer arithmetic on
//! nanoseconds (or parts-per-million for QoS), so two runs with the same
//! seed produce bit-identical registries.

use core::fmt;

use rtseed_model::Span;
use rtseed_sim::OverheadKind;

/// Number of log₂ buckets: bucket `i` holds values `v` with
/// `⌊log₂ v⌋ = i` (bucket 0 also holds 0). 2⁶³ ns ≈ 292 years, so 64
/// buckets cover every representable span.
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram over `u64` values with exact count/sum/
/// min/max. Fixed 64-bucket footprint, O(1) record, deterministic merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        (63 - value.max(1).leading_zeros()) as usize
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Records a span, in nanoseconds.
    #[inline]
    pub fn record_span(&mut self, span: Span) {
        self.record(span.as_nanos());
    }

    /// Number of recorded values.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// `true` if nothing was recorded.
    pub const fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values.
    pub const fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean (truncating), 0 if empty.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// Smallest recorded value, 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, 0 if empty.
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Mean as a [`Span`] (for nanosecond-valued histograms).
    pub fn mean_span(&self) -> Span {
        Span::from_nanos(self.mean())
    }

    /// Max as a [`Span`] (for nanosecond-valued histograms).
    pub fn max_span(&self) -> Span {
        Span::from_nanos(self.max())
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 ≤ p ≤ 1.0`), 0 if empty. Bucket resolution is a factor of
    /// two — use it for tail shape, not exact percentiles.
    pub fn quantile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper edge of bucket i is 2^(i+1) − 1, clamped to max.
                let bound = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Per-bucket counts (bucket `i` holds values with `⌊log₂ v⌋ = i`).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Scale factor for QoS levels: a ratio of 1.0 is recorded as 1 000 000.
pub const QOS_PPM: u64 = 1_000_000;

/// Aggregated run metrics: one histogram per measured quantity.
///
/// Time-valued histograms are in nanoseconds; `qos_level` is in
/// parts-per-million of the requested QoS (so `mean()` of 1 000 000 means
/// every job achieved full QoS).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    overheads: [Histogram; OverheadKind::ALL.len()],
    response_time: Histogram,
    release_jitter: Histogram,
    qos_level: Histogram,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records one sample of middleware overhead `kind`.
    #[inline]
    pub fn record_overhead(&mut self, kind: OverheadKind, value: Span) {
        self.overheads[kind as usize].record_span(value);
    }

    /// Records one job's response time (release → wind-up completion).
    #[inline]
    pub fn record_response_time(&mut self, value: Span) {
        self.response_time.record_span(value);
    }

    /// Records one job's release jitter (release → mandatory dispatch).
    #[inline]
    pub fn record_release_jitter(&mut self, value: Span) {
        self.release_jitter.record_span(value);
    }

    /// Records one job's achieved QoS level as a ratio of requested QoS
    /// (clamped to `[0, 1]`, stored in parts-per-million).
    #[inline]
    pub fn record_qos_level(&mut self, ratio: f64) {
        let ppm = (ratio.clamp(0.0, 1.0) * QOS_PPM as f64).round() as u64;
        self.qos_level.record(ppm);
    }

    /// The histogram for overhead `kind` (nanoseconds).
    pub fn overhead(&self, kind: OverheadKind) -> &Histogram {
        &self.overheads[kind as usize]
    }

    /// Response-time histogram (nanoseconds).
    pub fn response_time(&self) -> &Histogram {
        &self.response_time
    }

    /// Release-jitter histogram (nanoseconds).
    pub fn release_jitter(&self) -> &Histogram {
        &self.release_jitter
    }

    /// QoS-level histogram (parts-per-million of requested QoS).
    pub fn qos_level(&self) -> &Histogram {
        &self.qos_level
    }

    /// Folds another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (a, b) in self.overheads.iter_mut().zip(other.overheads.iter()) {
            a.merge(b);
        }
        self.response_time.merge(&other.response_time);
        self.release_jitter.merge(&other.release_jitter);
        self.qos_level.merge(&other.qos_level);
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for kind in OverheadKind::ALL {
            let h = self.overhead(kind);
            writeln!(
                f,
                "{:12} n={:<6} mean={} max={}",
                kind.symbol(),
                h.count(),
                h.mean_span(),
                h.max_span(),
            )?;
        }
        let r = &self.response_time;
        writeln!(
            f,
            "{:12} n={:<6} mean={} max={}",
            "response",
            r.count(),
            r.mean_span(),
            r.max_span(),
        )?;
        let j = &self.release_jitter;
        writeln!(
            f,
            "{:12} n={:<6} mean={} max={}",
            "jitter",
            j.count(),
            j.mean_span(),
            j.max_span(),
        )?;
        let q = &self.qos_level;
        writeln!(
            f,
            "{:12} n={:<6} mean={:.3} min={:.3}",
            "qos",
            q.count(),
            q.mean() as f64 / QOS_PPM as f64,
            q.min() as f64 / QOS_PPM as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile_bound(0.99), 0);
    }

    #[test]
    fn exact_moments() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 600);
        assert_eq!(h.mean(), 200);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantile_bound_brackets_the_value() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_bound(0.5);
        // True median 500 lives in bucket 8 (256..=511) → bound 511.
        assert_eq!(p50, 511);
        assert_eq!(h.quantile_bound(1.0), 1000);
        assert!(h.quantile_bound(0.0) >= 1);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [5u64, 10, 20] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 70] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn registry_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.record_overhead(OverheadKind::BeginMandatory, Span::from_micros(3));
        m.record_overhead(OverheadKind::BeginMandatory, Span::from_micros(5));
        m.record_response_time(Span::from_millis(2));
        m.record_release_jitter(Span::from_micros(1));
        m.record_qos_level(0.5);
        m.record_qos_level(1.5); // clamped to 1.0
        assert_eq!(m.overhead(OverheadKind::BeginMandatory).count(), 2);
        assert_eq!(
            m.overhead(OverheadKind::BeginMandatory).mean_span(),
            Span::from_micros(4)
        );
        assert_eq!(m.overhead(OverheadKind::BeginOptional).count(), 0);
        assert_eq!(m.response_time().count(), 1);
        assert_eq!(m.release_jitter().count(), 1);
        assert_eq!(m.qos_level().mean(), 750_000);
        assert_eq!(m.qos_level().max(), QOS_PPM);
    }

    #[test]
    fn registry_merge_and_display() {
        let mut a = MetricsRegistry::new();
        a.record_overhead(OverheadKind::EndOptional, Span::from_micros(9));
        let mut b = MetricsRegistry::new();
        b.record_overhead(OverheadKind::EndOptional, Span::from_micros(11));
        b.record_qos_level(1.0);
        a.merge(&b);
        assert_eq!(a.overhead(OverheadKind::EndOptional).count(), 2);
        assert_eq!(
            a.overhead(OverheadKind::EndOptional).mean_span(),
            Span::from_micros(10)
        );
        let s = a.to_string();
        assert!(s.contains("Δe"), "{s}");
        assert!(s.contains("response"), "{s}");
    }
}
