//! Statistics primitives used throughout the framework: counters, running
//! means, exact latency distributions, fixed-bucket histograms and
//! percentile summaries.
//!
//! The paper reports latency *distributions* (Fig. 2, Fig. 16), averages
//! (Fig. 3, Fig. 10), accuracy percentages (Fig. 8) and cosine similarity of
//! fault latencies (Fig. 9). This module provides the building blocks for
//! all of them.

use serde::{Deserialize, Serialize};
use std::fmt;

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
    /// Creates an empty tracker (all zeros, the same value as `default()`).
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        // The first sample sets both extremes: an empty tracker holds zeros.
        if self.count == 1 || value < self.min {
            self.min = value;
        }
        if self.count == 1 || value > self.max {
            self.max = value;
        }
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
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
        self.min
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        self.max
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

/// An exact latency distribution: each distinct value and how many samples
/// took it, with percentile and tail-contribution queries.
///
/// The paper reads fault latency as a distribution: percentiles for the box
/// plots of Fig. 2 / Fig. 16, the outliers' share of the total latency, and
/// a similarity score between two runs (Fig. 9). None of these needs the
/// order the samples came in, so the recorder keeps only `(value, count)`
/// pairs, sorted by [`f64::total_cmp`]. Its answers equal those of a
/// recorder that kept every sample, and it grows with the number of
/// *distinct* values (tens to a few thousand on the experiments' fault
/// paths), not with the number of samples.
///
/// # Examples
///
/// ```
/// use vm_types::LatencyStats;
/// let mut lat = LatencyStats::new();
/// for v in [1.0, 2.0, 3.0, 100.0, 2.0] {
///     lat.record(v);
/// }
/// assert_eq!(lat.counts(), &[(1.0, 1), (2.0, 2), (3.0, 1), (100.0, 1)]);
/// let p = lat.percentiles();
/// assert_eq!(p.p50, 2.0);
/// // The single outlier (>10.0) contributes most of the total latency.
/// assert!(lat.outlier_contribution(10.0) > 0.9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    counts: Vec<(f64, u64)>,
    stats: RunningStats,
}

impl LatencyStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one latency sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN, which has no place in a distribution.
    pub fn record(&mut self, value: f64) {
        self.add(value, 1);
        self.stats.record(value);
    }

    /// Adds `n` samples of `value` to the counts.
    fn add(&mut self, value: f64, n: u64) {
        assert!(!value.is_nan(), "latency samples must not be NaN");
        match self.counts.binary_search_by(|(v, _)| v.total_cmp(&value)) {
            Ok(i) => self.counts[i].1 += n,
            Err(i) => self.counts.insert(i, (value, n)),
        }
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

    /// Each distinct sample value with the number of samples that took it,
    /// in ascending order of value.
    pub fn counts(&self) -> &[(f64, u64)] {
        &self.counts
    }

    /// The value at the given quantile `q` in `[0, 1]`, by nearest-rank on
    /// the sorted samples: the sample at index `round((count - 1) * q)`.
    /// Returns 0 for an empty recorder.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as u64;
        let mut below = 0;
        for &(value, n) in &self.counts {
            below += n;
            if rank < below {
                return value;
            }
        }
        unreachable!("the counts sum to the sample count")
    }

    /// Standard percentile summary (25/50/75/90/99/max).
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p25: self.quantile(0.25),
            p50: self.quantile(0.50),
            p75: self.quantile(0.75),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
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
        // `fold` from +0.0: a float `sum()` of nothing is -0.0.
        let outliers = self
            .counts
            .iter()
            .filter(|&&(v, _)| v > threshold)
            .fold(0.0, |sum, &(v, n)| sum + v * n as f64);
        outliers / total
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        for &(value, n) in &other.counts {
            self.add(value, n);
        }
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
    fn default_running_stats_take_the_first_sample_as_both_extremes() {
        let mut s = RunningStats::default();
        s.record(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s, {
            let mut n = RunningStats::new();
            n.record(5.0);
            n
        });
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
    fn outlier_contribution_matches_manual_computation() {
        let mut lat = LatencyStats::new();
        for v in [1.0, 1.0, 1.0, 1.0, 96.0] {
            lat.record(v);
        }
        assert!((lat.outlier_contribution(10.0) - 0.96).abs() < 1e-12);
        assert_eq!(lat.outlier_contribution(1000.0).to_bits(), 0.0f64.to_bits());
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
    #[should_panic(expected = "must not be NaN")]
    fn latency_rejects_nan() {
        LatencyStats::new().record(f64::NAN);
    }

    /// The recorder `LatencyStats` replaced, kept as the naive model: every
    /// sample in recording order, answered from a sorted copy.
    #[derive(Default)]
    struct SampleVec {
        samples: Vec<f64>,
        stats: RunningStats,
    }

    impl SampleVec {
        fn record(&mut self, value: f64) {
            self.samples.push(value);
            self.stats.record(value);
        }

        fn merge(&mut self, other: &SampleVec) {
            self.samples.extend_from_slice(&other.samples);
            self.stats.merge(&other.stats);
        }

        fn sorted(&self) -> Vec<f64> {
            let mut sorted = self.samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            sorted
        }

        fn quantile(&self, q: f64) -> f64 {
            let sorted = self.sorted();
            if sorted.is_empty() {
                return 0.0;
            }
            sorted[((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize]
        }

        fn outlier_contribution(&self, threshold: f64) -> f64 {
            let total = self.stats.sum();
            if total <= 0.0 {
                return 0.0;
            }
            let outliers: f64 = self.samples.iter().filter(|&&v| v > threshold).sum();
            outliers / total
        }
    }

    /// Records `values` into both recorders, split at `split` into two
    /// halves that are then merged.
    fn both_recorders(values: &[f64], split: usize) -> (LatencyStats, SampleVec) {
        let (left, right) = values.split_at(split.min(values.len()));
        let (mut lat, mut lat_right) = (LatencyStats::new(), LatencyStats::new());
        let (mut naive, mut naive_right) = (SampleVec::default(), SampleVec::default());
        for &v in left {
            lat.record(v);
            naive.record(v);
        }
        for &v in right {
            lat_right.record(v);
            naive_right.record(v);
        }
        lat.merge(&lat_right);
        naive.merge(&naive_right);
        (lat, naive)
    }

    proptest::proptest! {
        /// The distribution answers exactly what the sample vector did.
        /// `spread` is almost all distinct values; `repeated` draws from 32
        /// values, as fault latencies do, so merged halves share values.
        #[test]
        fn distribution_matches_the_sample_vector(
            spread in proptest::collection::vec(0.0f64..1e9, 1..200),
            repeated in proptest::collection::vec(0u64..32, 0..400),
            split in 0usize..600,
            q in 0.0f64..1.0,
        ) {
            let values: Vec<f64> = spread
                .iter()
                .copied()
                .chain(repeated.iter().map(|&k| 2_000.0 + 125.0 * k as f64))
                .collect();
            let (lat, naive) = both_recorders(&values, split);

            let expanded: Vec<f64> = lat
                .counts()
                .iter()
                .flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize))
                .collect();
            proptest::prop_assert_eq!(&expanded, &naive.sorted(), "expanded counts vs sorted samples");
            proptest::prop_assert_eq!(lat.count(), naive.stats.count());
            proptest::prop_assert_eq!(lat.mean().to_bits(), naive.stats.mean().to_bits());
            proptest::prop_assert_eq!(lat.max().to_bits(), naive.stats.max().to_bits());
            for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, q] {
                proptest::prop_assert_eq!(lat.quantile(q).to_bits(), naive.quantile(q).to_bits());
            }
            let p = lat.percentiles();
            proptest::prop_assert_eq!(
                p,
                Percentiles {
                    p25: naive.quantile(0.25),
                    p50: naive.quantile(0.50),
                    p75: naive.quantile(0.75),
                    p90: naive.quantile(0.90),
                    p99: naive.quantile(0.99),
                    max: naive.stats.max(),
                }
            );
            proptest::prop_assert!(p.p25 <= p.p50 && p.p50 <= p.p75 && p.p75 <= p.p90);
            proptest::prop_assert!(p.p90 <= p.p99 && p.p99 <= p.max);
            for threshold in [0.0, 2_000.0, 3_000.0, p.p50, lat.quantile(q)] {
                let (got, want) = (
                    lat.outlier_contribution(threshold),
                    naive.outlier_contribution(threshold),
                );
                proptest::prop_assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "outlier share above {threshold}: {got} vs {want}"
                );
            }
        }
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
