//! Statistics primitives used throughout the framework: counters, running
//! means, log-scale latency histograms and percentile summaries.
//!
//! The paper reports latency *distributions* (Fig. 2, Fig. 16), averages
//! (Fig. 3, Fig. 10), accuracy percentages (Fig. 8) and cosine similarity of
//! latency series (Fig. 9). This module provides the building blocks for all
//! of them.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A simple monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use vm_types::Counter;
/// let mut hits = Counter::default();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets the counter to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Incremental mean / variance / extrema tracker (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use vm_types::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population standard deviation (0 if fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Minimum sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another tracker into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Percentile summary of a sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed value.
    pub max: f64,
}

/// An exact-sample latency recorder with percentile and tail-contribution
/// queries.
///
/// The recorder stores every sample (the experiments record at most a few
/// hundred thousand page faults, 8 bytes each) which lets it answer the
/// paper's distribution questions exactly: percentiles for the box plots of
/// Fig. 2 / Fig. 16, and "contribution of outliers to total latency".
///
/// The samples live in one shared buffer. `clone` hands out another
/// reference to it, so a report built from a live recorder copies no
/// sample; the next `record` into a shared buffer copies it once
/// (copy-on-write), so a clone never sees later samples.
///
/// # Examples
///
/// ```
/// use vm_types::LatencyStats;
/// let mut lat = LatencyStats::new();
/// for v in [1.0, 2.0, 3.0, 100.0] {
///     lat.record(v);
/// }
/// let p = lat.percentiles();
/// assert!(p.p50 <= 3.0);
/// // The single outlier (>10.0) contributes most of the total latency.
/// assert!(lat.outlier_contribution(10.0) > 0.9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    samples: Arc<Vec<f64>>,
    stats: RunningStats,
}

impl LatencyStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyStats {
            samples: Arc::default(),
            stats: RunningStats::new(),
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, value: f64) {
        Arc::make_mut(&mut self.samples).push(value);
        self.stats.record(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean latency.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Standard deviation of the latency.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Total (summed) latency across all samples.
    pub fn total(&self) -> f64 {
        self.stats.sum()
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// All recorded samples, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The samples in ascending order.
    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples must not be NaN"));
        sorted
    }

    /// Nearest-rank quantile of ascending `sorted`; 0 when it is empty.
    fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// The value at the given quantile `q` in `[0, 1]`, by nearest-rank on the
    /// sorted samples. Returns 0 for an empty recorder.
    pub fn quantile(&self, q: f64) -> f64 {
        Self::nearest_rank(&self.sorted(), q)
    }

    /// Standard percentile summary (25/50/75/90/99/max), from one sort.
    pub fn percentiles(&self) -> Percentiles {
        let sorted = self.sorted();
        Percentiles {
            p25: Self::nearest_rank(&sorted, 0.25),
            p50: Self::nearest_rank(&sorted, 0.50),
            p75: Self::nearest_rank(&sorted, 0.75),
            p90: Self::nearest_rank(&sorted, 0.90),
            p99: Self::nearest_rank(&sorted, 0.99),
            max: self.max(),
        }
    }

    /// Fraction of the *total* latency contributed by samples larger than
    /// `threshold` — the paper's "contribution of outliers to total minor
    /// page fault latency" metric (Fig. 2).
    pub fn outlier_contribution(&self, threshold: f64) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        let outliers: f64 = self
            .samples
            .iter()
            .copied()
            .filter(|&v| v > threshold)
            .sum();
        outliers / total
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        Arc::make_mut(&mut self.samples).extend_from_slice(&other.samples);
        self.stats.merge(&other.stats);
    }
}

/// A fixed-bucket histogram over `u64` values (e.g. VMA sizes, latencies in
/// cycles) with user-supplied bucket upper bounds.
///
/// # Examples
///
/// ```
/// use vm_types::Histogram;
/// let mut h = Histogram::new(&[10, 100, 1000]);
/// h.record(5);
/// h.record(50);
/// h.record(5000);
/// assert_eq!(h.bucket_counts(), &[1, 1, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bounds (inclusive) of each bucket; values above the last bound
    /// fall into the overflow bucket.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
        }
    }

    /// Records a value into the appropriate bucket.
    pub fn record(&mut self, value: u64) {
        let idx = match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => i,
            None => self.bounds.len(),
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket upper bounds supplied at construction.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Cosine similarity between two equally-indexed series, the metric the paper
/// uses to validate page-fault latency against the real system (Fig. 9).
///
/// Returns 0 when either vector is all zeros or when lengths differ by more
/// than the shared prefix (the shared prefix is compared).
///
/// # Examples
///
/// ```
/// use vm_types::stats::cosine_similarity;
/// let sim = cosine_similarity(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
/// assert!((sim - 1.0).abs() < 1e-12);
/// ```
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
    for i in 0..n {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// Accuracy of an estimate relative to a reference, as the paper reports it:
/// `1 - |estimate - reference| / reference`, clamped to `[0, 1]`.
///
/// # Examples
///
/// ```
/// use vm_types::stats::accuracy;
/// assert!((accuracy(0.8, 1.0) - 0.8).abs() < 1e-12);
/// assert_eq!(accuracy(5.0, 1.0), 0.0);
/// ```
pub fn accuracy(estimate: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        return if estimate == 0.0 { 1.0 } else { 0.0 };
    }
    (1.0 - ((estimate - reference).abs() / reference.abs())).clamp(0.0, 1.0)
}

/// Geometric mean of a slice of positive values (0 if empty).
///
/// # Examples
///
/// ```
/// use vm_types::stats::geometric_mean;
/// assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn running_stats_mean_and_stddev() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        let mut all = RunningStats::new();
        for i in 0..50 {
            let v = (i as f64).sin() * 10.0 + 20.0;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.std_dev() - all.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn empty_running_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn latency_percentiles_ordering() {
        let mut lat = LatencyStats::new();
        for v in 1..=100 {
            lat.record(v as f64);
        }
        let p = lat.percentiles();
        assert!(p.p25 <= p.p50 && p.p50 <= p.p75 && p.p75 <= p.p90 && p.p90 <= p.p99);
        assert_eq!(p.max, 100.0);
        assert!((p.p50 - 50.0).abs() <= 1.0);
    }

    #[test]
    fn percentiles_agree_with_the_per_quantile_answers() {
        let mut rng = crate::DetRng::new(19);
        let random: Vec<f64> = (0..10_000).map(|_| rng.next_f64() * 1e6).collect();
        for samples in [&[][..], &[42.0][..], &random[..]] {
            let mut lat = LatencyStats::new();
            for &v in samples {
                lat.record(v);
            }
            let expected = Percentiles {
                p25: lat.quantile(0.25),
                p50: lat.quantile(0.50),
                p75: lat.quantile(0.75),
                p90: lat.quantile(0.90),
                p99: lat.quantile(0.99),
                max: lat.max(),
            };
            assert_eq!(lat.percentiles(), expected, "{} samples", samples.len());
        }
    }

    #[test]
    fn outlier_contribution_matches_manual_computation() {
        let mut lat = LatencyStats::new();
        for v in [1.0, 1.0, 1.0, 1.0, 96.0] {
            lat.record(v);
        }
        assert!((lat.outlier_contribution(10.0) - 0.96).abs() < 1e-12);
        assert_eq!(lat.outlier_contribution(1000.0), 0.0);
    }

    #[test]
    fn latency_merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(1.0);
        let mut b = LatencyStats::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn clones_share_the_samples_until_one_records() {
        let mut live = LatencyStats::new();
        live.record(1.0);
        live.record(2.0);
        let snapshot = live.clone();
        assert_eq!(live.samples().as_ptr(), snapshot.samples().as_ptr());
        live.record(3.0);
        assert_eq!(snapshot.samples(), &[1.0, 2.0]);
        assert_eq!(snapshot.count(), 2);
        assert_eq!(live.samples(), &[1.0, 2.0, 3.0]);

        // Shared or not, the JSON is the plain sample list's.
        let json = |lat: &LatencyStats| {
            let mut out = String::new();
            serde::Serialize::write_json(lat, &mut out);
            out
        };
        let mut samples = String::new();
        serde::Serialize::write_json(&vec![1.0, 2.0], &mut samples);
        assert!(json(&snapshot).starts_with(&format!("{{\"samples\":{samples},\"stats\":")));
        let mut fed = LatencyStats::new();
        fed.record(1.0);
        fed.record(2.0);
        assert_eq!(json(&snapshot), json(&fed));
        assert_eq!(snapshot, fed);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[4, 8, 16]);
        for v in [1, 4, 5, 8, 9, 16, 17, 1000] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 5]);
    }

    #[test]
    fn cosine_similarity_identical_and_orthogonal() {
        assert!((cosine_similarity(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[], &[]), 0.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn accuracy_clamps_and_handles_zero_reference() {
        assert_eq!(accuracy(0.0, 0.0), 1.0);
        assert_eq!(accuracy(1.0, 0.0), 0.0);
        assert!((accuracy(66.0, 100.0) - 0.66).abs() < 1e-12);
        assert_eq!(accuracy(250.0, 100.0), 0.0);
    }

    #[test]
    fn geometric_mean_examples() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
