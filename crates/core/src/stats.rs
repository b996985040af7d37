//! Deterministic service-level statistics: counter, gauge and
//! fixed-bucket log₂ histogram values collected in a [`StatsRegistry`].
//!
//! Everything here is **simulated-clock observability**: instruments are
//! fed integer quantities derived from the deterministic simulation (a
//! latency in whole nanoseconds, a queue depth, a wave width), so two
//! runs that simulate identically produce byte-identical expositions —
//! the same contract [`Metrics`](crate::metrics::Metrics) and the trace
//! subsystem already keep. No instrument stores a float: the
//! [`Histogram`] is an array of `u64` bucket counts over power-of-two
//! value ranges, and its p50/p95/p99/max are *exact* functions of those
//! integer counts (nearest-rank selection resolved to the bucket's
//! inclusive upper bound, plus the exactly-tracked maximum).
//!
//! The [`StatsRegistry`] is a snapshot container, not a live pipeline:
//! subsystems own their instruments (e.g. the serve layer's latency
//! histograms) and *collect* them into a registry when an exposition is
//! requested. The registry renders two formats, both hand-written (the
//! vendored `serde` is an offline marker stub):
//!
//! * [`StatsRegistry::render_prometheus`] — the Prometheus text format
//!   (`# HELP` / `# TYPE` headers, `_bucket{le="…"}` cumulative buckets,
//!   `_sum` / `_count`, quantile gauges), and
//! * [`StatsRegistry::to_json`] — one JSON object per metric, written
//!   through the shared [`JsonObject`] writer.

use graphr_units::Nanos;

use crate::json::{json_escape, JsonObject};

/// Bucket count of a [`Histogram`]: one per power-of-two value range.
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)` — i.e. values with exactly `i` significant bits. A
/// `u64` value therefore always lands in one of `64 + 1` buckets.
pub const HISTOGRAM_BUCKETS: usize = u64::BITS as usize + 1;

/// A deterministic fixed-bucket log₂ histogram over `u64` samples.
///
/// State is integer-only — bucket counts, sample count, sum, and the
/// exact minimum/maximum — so identical sample streams produce identical
/// histograms bit-for-bit, with no float accumulation order to worry
/// about. Percentiles are **nearest-rank** selections resolved to the
/// containing bucket's inclusive upper bound (`2^i − 1`): the reported
/// pXX is the smallest bucket bound covering at least `⌈count · XX/100⌉`
/// samples, which over-approximates the true sample by less than 2× (the
/// bucket width) and never under-reports — the right bias for a tail
/// latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index a value lands in: its number of significant bits.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `index` (`0` for bucket 0,
/// `2^index − 1` otherwise).
#[must_use]
pub fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= u64::BITS as usize {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a simulated duration, rounded to whole nanoseconds.
    ///
    /// The simulation's [`Nanos`] is an `f64`, but every engine produces
    /// the *same* `f64` for the same run (the determinism contract), so
    /// this rounding is deterministic too. Negative durations cannot
    /// occur in a causally ordered service clock; they are clamped to 0
    /// rather than panicking in release builds.
    pub fn record_nanos(&mut self, duration: Nanos) {
        debug_assert!(
            duration.as_nanos() >= 0.0,
            "negative duration {duration} recorded"
        );
        self.record(duration.as_nanos().max(0.0).round() as u64);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest sample (`0` when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample (`0` when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket counts (one per power-of-two range; see [`bucket_index`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// The nearest-rank percentile, resolved to its bucket's inclusive
    /// upper bound; `0` for an empty histogram, the exact [`Histogram::max`]
    /// for `p = 100` (and whenever the selected bucket is the maximum's —
    /// the bound never exceeds the largest sample actually seen).
    ///
    /// `p` is in percent (`50`, `95`, `99`); values above 100 clamp.
    #[must_use]
    pub fn percentile(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = u64::from(p.min(100));
        // Nearest rank: the ⌈count · p/100⌉-th smallest sample,
        // 1-indexed; integer arithmetic only.
        let rank = (self.count * p).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report past the exact maximum: for the topmost
                // occupied bucket the max is the tighter (and exact)
                // bound.
                return bucket_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A collected metric value, ready for exposition.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone count.
    Counter(u64),
    /// An instantaneous level.
    Gauge(i64),
    /// A full distribution snapshot (boxed — the 65-bucket array would
    /// otherwise dwarf the scalar variants).
    Histogram(Box<Histogram>),
}

/// One named metric in a [`StatsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Prometheus-style metric name (`snake_case`, subsystem-prefixed).
    pub name: String,
    /// One-line human description (the `# HELP` text).
    pub help: String,
    /// The collected value.
    pub value: MetricValue,
}

/// An ordered collection of metric snapshots with Prometheus text and
/// JSON expositions.
///
/// Registration order is preserved verbatim in both renderings, so a
/// deterministic collection pass produces byte-identical output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsRegistry {
    metrics: Vec<Metric>,
}

impl StatsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Snapshots a counter value.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            help: help.to_owned(),
            value: MetricValue::Counter(value),
        });
    }

    /// Snapshots a gauge level.
    pub fn gauge(&mut self, name: &str, help: &str, value: i64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            help: help.to_owned(),
            value: MetricValue::Gauge(value),
        });
    }

    /// Snapshots a histogram (cloned — the live instrument keeps
    /// recording).
    pub fn histogram(&mut self, name: &str, help: &str, histogram: &Histogram) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            help: help.to_owned(),
            value: MetricValue::Histogram(Box::new(histogram.clone())),
        });
    }

    /// The collected metrics, in registration order.
    #[must_use]
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Whether nothing was collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the Prometheus text exposition format: `# HELP` / `# TYPE`
    /// per metric; histograms as cumulative `_bucket{le="…"}` series
    /// (buckets above the occupied range are folded into `+Inf`) plus
    /// `_sum` / `_count` and `_p50` / `_p95` / `_p99` / `_max` gauges, so
    /// scrape-less consumers get the percentiles without re-deriving
    /// them.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            let name = &metric.name;
            match &metric.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "# HELP {name} {}\n# TYPE {name} counter\n{name} {v}\n",
                        metric.help
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "# HELP {name} {}\n# TYPE {name} gauge\n{name} {v}\n",
                        metric.help
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "# HELP {name} {}\n# TYPE {name} histogram\n",
                        metric.help
                    ));
                    let top = bucket_index(h.max());
                    let mut cumulative = 0u64;
                    for index in 0..=top {
                        cumulative += h.buckets()[index];
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            bucket_bound(index)
                        ));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                    for (suffix, value) in [
                        ("p50", h.percentile(50)),
                        ("p95", h.percentile(95)),
                        ("p99", h.percentile(99)),
                        ("max", h.max()),
                    ] {
                        out.push_str(&format!("{name}_{suffix} {value}\n"));
                    }
                }
            }
        }
        out
    }

    /// Renders the registry as one JSON object: metric name → value
    /// object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut doc = JsonObject::open(&mut out);
        for metric in &self.metrics {
            let mut obj = JsonObject::open(doc.key(&json_escape(&metric.name)));
            match &metric.value {
                MetricValue::Counter(v) => {
                    obj.str("type", "counter").raw("value", v);
                }
                MetricValue::Gauge(v) => {
                    obj.str("type", "gauge").raw("value", v);
                }
                MetricValue::Histogram(h) => {
                    obj.str("type", "histogram")
                        .raw("count", h.count())
                        .raw("sum", h.sum())
                        .raw("min", h.min())
                        .raw("max", h.max())
                        .raw("p50", h.percentile(50))
                        .raw("p95", h.percentile(95))
                        .raw("p99", h.percentile(99));
                    let buckets = obj.key("buckets");
                    buckets.push('[');
                    for index in 0..=bucket_index(h.max()) {
                        if index > 0 {
                            buckets.push(',');
                        }
                        let mut bucket = JsonObject::open(buckets);
                        bucket
                            .raw("le", bucket_bound(index))
                            .raw("count", h.buckets()[index]);
                        bucket.close();
                    }
                    buckets.push(']');
                }
            }
            obj.close();
        }
        doc.close();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(3), 7);
        assert_eq!(bucket_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "{v} above its bucket bound");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "{v} not above the previous");
            }
        }
    }

    #[test]
    fn percentiles_are_bucket_bounds_capped_at_max() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
        // rank(p50) = ⌈5·50/100⌉ = 3 → third smallest is 3, bucket bound 3.
        assert_eq!(h.percentile(50), 3);
        // rank(p99) = ⌈5·99/100⌉ = 5 → 1000, whose bucket bound (1023) is
        // capped at the exact max.
        assert_eq!(h.percentile(99), 1000);
        assert_eq!(h.percentile(100), 1000);
    }

    #[test]
    fn empty_and_single_sample_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.percentile(1), 42);
        assert_eq!(h.percentile(99), 42);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(5);
        a.record(9);
        let mut b = Histogram::new();
        b.record(100);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = Histogram::new();
        for v in [5u64, 9, 100] {
            direct.record(v);
        }
        assert_eq!(merged, direct);
    }

    #[test]
    fn record_nanos_rounds_deterministically() {
        let mut h = Histogram::new();
        h.record_nanos(Nanos::new(1.4));
        h.record_nanos(Nanos::new(1.6));
        assert_eq!(h.sum(), 1 + 2);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut registry = StatsRegistry::new();
        registry.counter("graphr_serve_admitted_total", "queries admitted", 3);
        registry.gauge("graphr_cache_entries", "tilings resident", 2);
        let mut h = Histogram::new();
        h.record(1);
        h.record(6);
        registry.histogram("graphr_serve_latency_ns", "query latency", &h);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE graphr_serve_admitted_total counter"));
        assert!(text.contains("graphr_serve_admitted_total 3"));
        assert!(text.contains("# TYPE graphr_cache_entries gauge"));
        assert!(text.contains("graphr_serve_latency_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("graphr_serve_latency_ns_bucket{le=\"7\"} 2"));
        assert!(text.contains("graphr_serve_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("graphr_serve_latency_ns_sum 7"));
        assert!(text.contains("graphr_serve_latency_ns_count 2"));
        assert!(text.contains("graphr_serve_latency_ns_p95 6"));
        // Deterministic: a second render is byte-identical.
        assert_eq!(text, registry.render_prometheus());
    }

    #[test]
    fn json_exposition_is_valid_shape() {
        let mut registry = StatsRegistry::new();
        registry.counter("a_total", "a", 1);
        let mut h = Histogram::new();
        h.record(3);
        registry.histogram("lat_ns", "lat", &h);
        let json = registry.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\":{\"type\":\"counter\",\"value\":1}"));
        assert!(json.contains("\"lat_ns\":{\"type\":\"histogram\",\"count\":1"));
        assert!(json.contains(
            "\"buckets\":[{\"le\":0,\"count\":0},{\"le\":1,\"count\":0},{\"le\":3,\"count\":1}]"
        ));
    }
}
