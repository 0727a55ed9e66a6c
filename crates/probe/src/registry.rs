//! The central metric registry.
//!
//! Every subsystem registers hierarchically-named metrics (dots as
//! separators: `cpu.node0.core1.instrs`, `net.delivered`) and receives a
//! typed handle. Handles are cheap to clone and lock-free to update —
//! counters and gauges are a single relaxed atomic — so they can sit on
//! simulation hot paths; registration and snapshotting take a lock but
//! happen at setup and reporting time only.
//!
//! Two usage styles coexist:
//!
//! * **push**: hold a [`CounterHandle`]/[`GaugeHandle`]/[`HistogramHandle`]
//!   and update it as events happen;
//! * **pull**: a subsystem that already owns its authoritative counters
//!   (the one-source-of-truth rule) is *sampled* into the registry at
//!   snapshot time via [`MetricRegistry::publish_counter`] /
//!   [`MetricRegistry::publish_gauge`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A registered counter: a monotonically increasing `u64`.
///
/// The disabled (no-op) handle costs one branch per update, so handles
/// can be embedded unconditionally.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<AtomicU64>>);

impl CounterHandle {
    /// A handle that ignores updates (for probes that are switched off).
    pub fn noop() -> Self {
        CounterHandle(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Overwrite with an absolute value (pull-sampling).
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A registered gauge: an instantaneous `f64` (occupancy, rate, level).
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Option<Arc<AtomicU64>>);

impl GaugeHandle {
    /// A handle that ignores updates.
    pub fn noop() -> Self {
        GaugeHandle(None)
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// Power-of-two-bucketed histogram state shared by handles and snapshots.
#[derive(Debug, Clone)]
pub struct HistogramCore {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramCore {
    fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        };
        self.buckets[b.min(63)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold `other`'s samples into this histogram: bucket-wise sum, so
    /// the merge of two histograms reports exactly what one histogram
    /// fed both sample streams would have. Per-window and per-lane
    /// distributions aggregate into run totals this way.
    pub fn merge(&mut self, other: &HistogramCore) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Approximate percentile (0..=100), linearly interpolated within
    /// the containing power-of-two bucket (samples assumed uniform over
    /// the bucket's range) and clamped to the observed maximum; 0 for an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if seen + b >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = (target - seen) as f64 / b as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return (v as u64).min(self.max);
            }
            seen += b;
        }
        self.max
    }
}

/// The nominal half-open range `[lo, hi)` of bucket `i`: bucket 0 holds
/// zero-valued samples, bucket `i >= 1` holds `[2^(i-1), 2^i)`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        (1u64 << (i - 1), 1u64 << i)
    }
}

/// A registered histogram of `u64` samples (latencies, sizes).
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Mutex<HistogramCore>>>);

impl HistogramHandle {
    /// A handle that ignores updates.
    pub fn noop() -> Self {
        HistogramHandle(None)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().record(v);
        }
    }

    /// A snapshot of the accumulated distribution.
    pub fn core(&self) -> HistogramCore {
        self.0
            .as_ref()
            .map_or_else(HistogramCore::default, |h| h.lock().unwrap().clone())
    }
}

/// The value of one metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Count(u64),
    /// A gauge reading.
    Value(f64),
}

impl MetricValue {
    /// The value as `f64` regardless of kind.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Count(c) => *c as f64,
            MetricValue::Value(v) => *v,
        }
    }

    /// The counter reading, if this is a counter.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            MetricValue::Count(c) => Some(*c),
            MetricValue::Value(_) => None,
        }
    }
}

impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Count(c) => write!(f, "{c}"),
            MetricValue::Value(v) => write!(f, "{v}"),
        }
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<HistogramCore>>),
}

/// The registry: a name → metric map with typed registration.
///
/// # Examples
///
/// ```
/// use piranha_probe::MetricRegistry;
/// let reg = MetricRegistry::new();
/// let c = reg.register_counter("cache.node0.bank0.lookups");
/// c.add(3);
/// let snap = reg.snapshot();
/// assert_eq!(snap.get("cache.node0.bank0.lookups").unwrap().as_count(), Some(3));
/// ```
#[derive(Debug, Default)]
pub struct MetricRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-fetch) a counter. Registration is idempotent:
    /// the same name always resolves to the same underlying cell.
    pub fn register_counter(&self, name: &str) -> CounterHandle {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => CounterHandle(Some(Arc::clone(c))),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Register (or re-fetch) a gauge.
    pub fn register_gauge(&self, name: &str) -> GaugeHandle {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Gauge(g) => GaugeHandle(Some(Arc::clone(g))),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Register (or re-fetch) a histogram.
    pub fn register_histogram(&self, name: &str) -> HistogramHandle {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Arc::new(Mutex::new(HistogramCore::default()))));
        match slot {
            Slot::Histogram(h) => HistogramHandle(Some(Arc::clone(h))),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Pull-sample: store an absolute counter reading under `name`. The
    /// owning subsystem keeps the authoritative count; the registry only
    /// holds the latest sampled view.
    pub fn publish_counter(&self, name: &str, v: u64) {
        self.register_counter(name).set(v);
    }

    /// Pull-sample a gauge reading.
    pub fn publish_gauge(&self, name: &str, v: f64) {
        self.register_gauge(name).set(v);
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time reading of every metric, sorted by name.
    /// Histograms flatten into `<name>.count/.mean/.max/.p50/.p95/.p99`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().unwrap();
        let mut entries = Vec::with_capacity(slots.len());
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    entries.push((name.clone(), MetricValue::Count(c.load(Ordering::Relaxed))))
                }
                Slot::Gauge(g) => entries.push((
                    name.clone(),
                    MetricValue::Value(f64::from_bits(g.load(Ordering::Relaxed))),
                )),
                Slot::Histogram(h) => {
                    let core = h.lock().unwrap();
                    entries.push((format!("{name}.count"), MetricValue::Count(core.count())));
                    entries.push((format!("{name}.mean"), MetricValue::Value(core.mean())));
                    entries.push((format!("{name}.max"), MetricValue::Count(core.max())));
                    for p in [50.0, 95.0, 99.0] {
                        entries.push((
                            format!("{name}.p{p:.0}"),
                            MetricValue::Count(core.percentile(p)),
                        ));
                    }
                }
            }
        }
        // Histogram flattening can emit out of name order (`.mean` sorts
        // after `.max`); from_entries restores the sorted invariant that
        // `get`'s binary search relies on.
        MetricsSnapshot::from_entries(entries)
    }
}

/// A flat, name-sorted reading of every metric at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` rows, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// A snapshot assembled from explicit rows (sorted by name).
    pub fn from_entries(mut entries: Vec<(String, MetricValue)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }

    /// Look a metric up by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// All rows whose name starts with `prefix`.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a (String, MetricValue)> {
        self.entries
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as `name,value` CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (name, v) in &self.entries {
            out.push_str(name);
            out.push(',');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// Render as a flat JSON object (`{"name": value, ...}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{}\": {}", crate::chrome::escape(name), v));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricRegistry::new();
        let c = reg.register_counter("a.b.c");
        c.inc();
        c.add(4);
        let g = reg.register_gauge("a.b.util");
        g.set(0.75);
        let snap = reg.snapshot();
        assert_eq!(snap.get("a.b.c"), Some(&MetricValue::Count(5)));
        assert_eq!(snap.get("a.b.util"), Some(&MetricValue::Value(0.75)));
        assert!(snap.get("missing").is_none());
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricRegistry::new();
        let a = reg.register_counter("x");
        let b = reg.register_counter("x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same cell behind both handles");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = MetricRegistry::new();
        reg.register_counter("x");
        reg.register_gauge("x");
    }

    #[test]
    fn noop_handles_ignore_updates() {
        let c = CounterHandle::noop();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = GaugeHandle::noop();
        g.set(3.0);
        assert_eq!(g.get(), 0.0);
        let h = HistogramHandle::noop();
        h.record(5);
        assert_eq!(h.core().count(), 0);
    }

    #[test]
    fn publish_overwrites() {
        let reg = MetricRegistry::new();
        reg.publish_counter("sampled", 10);
        reg.publish_counter("sampled", 7);
        assert_eq!(reg.snapshot().get("sampled"), Some(&MetricValue::Count(7)));
    }

    #[test]
    fn histogram_flattens_into_snapshot() {
        let reg = MetricRegistry::new();
        let h = reg.register_histogram("lat");
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.get("lat.count"), Some(&MetricValue::Count(4)));
        assert_eq!(snap.get("lat.max"), Some(&MetricValue::Count(100)));
        let p99 = snap.get("lat.p99").unwrap().as_count().unwrap();
        assert!(p99 <= 100, "percentile clamped to max: {p99}");
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        let reg = MetricRegistry::new();
        let a = reg.register_histogram("a");
        let b = reg.register_histogram("b");
        let both = reg.register_histogram("both");
        for v in [1u64, 7, 130] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 9, 4096] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.core();
        merged.merge(&b.core());
        let reference = both.core();
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.max(), reference.max());
        assert!((merged.mean() - reference.mean()).abs() < 1e-12);
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(merged.percentile(p), reference.percentile(p));
        }
    }

    #[test]
    fn histogram_percentile_interpolates_within_bucket() {
        let mut core = HistogramCore::default();
        // 1000 uniform samples; the median resolves near 500, not at
        // the 1024 bucket edge.
        for v in 1..=1000u64 {
            core.record(v);
        }
        let p50 = core.percentile(50.0);
        assert!((450..=550).contains(&p50), "interpolated p50 was {p50}");
        let p99 = core.percentile(99.0);
        assert!((950..=1000).contains(&p99), "interpolated p99 was {p99}");
        assert_eq!(core.percentile(100.0), 1000, "p100 clamps to max");
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let reg = MetricRegistry::new();
        let h = reg.register_histogram("h");
        for v in [3u64, 5, 8] {
            h.record(v);
        }
        let mut merged = h.core();
        merged.merge(&HistogramCore::default());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 8);
        let mut empty = HistogramCore::default();
        empty.merge(&h.core());
        assert_eq!(empty.count(), 3);
        assert!((empty.mean() - h.core().mean()).abs() < 1e-12);
    }

    #[test]
    fn snapshot_is_sorted_and_csv_renders() {
        let reg = MetricRegistry::new();
        reg.publish_counter("z.last", 1);
        reg.publish_counter("a.first", 2);
        let snap = reg.snapshot();
        assert!(snap.entries.windows(2).all(|w| w[0].0 <= w[1].0));
        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("a.first,2\n"));
        let json = snap.to_json();
        assert!(json.contains("\"z.last\": 1"));
    }

    #[test]
    fn prefix_query() {
        let reg = MetricRegistry::new();
        reg.publish_counter("cpu.node0.core0.instrs", 5);
        reg.publish_counter("cpu.node0.core1.instrs", 6);
        reg.publish_counter("net.delivered", 7);
        let snap = reg.snapshot();
        assert_eq!(snap.with_prefix("cpu.").count(), 2);
    }
}
