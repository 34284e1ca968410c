//! The metrics registry: counters, gauges and log-linear histograms
//! registered by name, with a [`MetricsSnapshot`] API for the bench and fig
//! binaries.
//!
//! Handles are `Arc`s over atomics: callers fetch a handle once (one
//! `BTreeMap` lookup under a short mutex) and every subsequent
//! increment/record is a couple of relaxed atomic ops — no locks, no
//! allocation, safe on the ingest hot path.
//!
//! Histograms are log-linear (HdrHistogram-style): four linear sub-buckets
//! per power of two, 256 buckets total, covering the full `u64` range in
//! ~2 KiB of counters. Quantiles are answered as the lower bound of the
//! bucket containing the target rank, i.e. with a relative error bounded by
//! 25% — plenty for p50/p95/p99 of latencies and rates.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: 62 octaves x 4 sub-buckets + the 8 exact
/// small values (0..8 map to themselves via the first two octaves).
const BUCKETS: usize = 256;

/// A monotonically increasing named counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge holding the last value set.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log-linear histogram over `u64` samples.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for Histogram {
    fn default() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: buckets.into_boxed_slice(),
        }
    }
}

/// Bucket index of a value: values below 8 map exactly; above, the octave
/// (position of the most significant bit) selects a group of four linear
/// sub-buckets.
fn bucket_of(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= 3
    let sub = (v >> (msb - 2)) & 0x3;
    (((msb - 1) << 2) | sub) as usize
}

/// Lower bound of a bucket (the value reported for quantiles landing in it).
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < 8 {
        return idx as u64;
    }
    let idx = idx as u64;
    let msb = (idx >> 2) + 1;
    let sub = idx & 0x3;
    (1 << msb) | (sub << (msb - 2))
}

impl Histogram {
    /// Record one sample. Lock-free, allocation-free.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if let Some(b) = self.buckets.get(bucket_of(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a non-negative float after scaling (e.g. a freshness rate in
    /// `[0,1]` with `scale = 1e6`). Negative or non-finite samples clamp
    /// to zero.
    pub fn record_scaled(&self, v: f64, scale: f64) {
        let scaled = v * scale;
        self.record(if scaled.is_finite() && scaled > 0.0 {
            scaled as u64
        } else {
            0
        });
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Quantile `q` in `[0,1]`: the lower bound of the bucket holding the
    /// target rank (relative error <= 25%). Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_lower_bound(i);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Fixed summary of the distribution.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("summary", &self.summary())
            .finish()
    }
}

/// Point-in-time digest of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket lower bound).
    pub p50: u64,
    /// 95th percentile (bucket lower bound).
    pub p95: u64,
    /// 99th percentile (bucket lower bound).
    pub p99: u64,
    /// Largest sample seen.
    pub max: u64,
}

/// Get-or-create registry of named metrics. Names are `&'static str` so the
/// hot paths never allocate; iteration order (and snapshot order) is the
/// `BTreeMap`'s — stable and deterministic.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// The counter registered under `name`, created on first use. Cache the
    /// handle; increments through it never touch the registry lock.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(self.counters.lock().entry(name).or_default())
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(self.gauges.lock().entry(name).or_default())
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(self.histograms.lock().entry(name).or_default())
    }

    /// A consistent-enough point-in-time snapshot of every registered
    /// metric (each metric is read atomically; the set is read under the
    /// registry locks).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(&k, v)| (k.to_string(), v.summary()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// Everything the registry knows, frozen: the API the fig binaries and
/// trace consumers read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram digests by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_bounded() {
        let mut last = 0;
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 65_535, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket({v}) went backwards");
            assert!(b < BUCKETS, "bucket({v}) = {b} out of range");
            last = b;
        }
    }

    #[test]
    fn bucket_lower_bound_brackets_its_values() {
        for v in (0..64)
            .map(|s| 1u64 << s)
            .chain([0, 3, 7, 9, 12345, 999_999])
        {
            let b = bucket_of(v);
            assert!(bucket_lower_bound(b) <= v, "lb(bucket({v})) > {v}");
            if b + 1 < BUCKETS {
                assert!(bucket_lower_bound(b + 1) > v, "lb(bucket({v})+1) <= {v}");
            }
        }
    }

    #[test]
    fn quantiles_land_within_a_bucket_of_truth() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // Log-linear buckets: answers are lower bounds, <= truth, within 25%.
        assert!(
            s.p50 <= 500 && s.p50 as f64 >= 500.0 * 0.75,
            "p50={}",
            s.p50
        );
        assert!(
            s.p95 <= 950 && s.p95 as f64 >= 950.0 * 0.75,
            "p95={}",
            s.p95
        );
        assert!(
            s.p99 <= 990 && s.p99 as f64 >= 990.0 * 0.75,
            "p99={}",
            s.p99
        );
        assert!((s.mean - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn record_scaled_clamps_junk() {
        let h = Histogram::default();
        h.record_scaled(0.5, 1e6);
        h.record_scaled(-3.0, 1e6);
        h.record_scaled(f64::NAN, 1e6);
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 500_000);
    }

    #[test]
    fn registry_handles_are_shared_and_snapshot_orders_by_name() {
        let r = Registry::default();
        r.counter("b.two").add(2);
        r.counter("a.one").inc();
        let again = r.counter("b.two");
        again.inc();
        r.gauge("g").set(7);
        r.histogram("h").record(10);
        let snap = r.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), ["a.one", "b.two"]);
        assert_eq!(snap.counters["b.two"], 3);
        assert_eq!(snap.gauges["g"], 7);
        assert_eq!(snap.histograms["h"].count, 1);
    }
}
