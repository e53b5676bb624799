//! Property-based tests for the foundational types.

use proptest::prelude::*;
use vm_types::stats::{accuracy, cosine_similarity, geometric_mean};
use vm_types::{DetRng, Histogram, LatencyStats, PageSize, PhysAddr, RunningStats, VirtAddr};

proptest! {
    #[test]
    fn page_base_is_aligned_and_below(raw in 0u64..(1 << 48), size_idx in 0usize..3) {
        let size = PageSize::ALL[size_idx];
        let va = VirtAddr::new(raw);
        let base = va.page_base(size);
        prop_assert!(base.is_aligned(size));
        prop_assert!(base.raw() <= raw);
        prop_assert!(raw - base.raw() < size.bytes());
    }

    #[test]
    fn page_offset_plus_base_reconstructs(raw in 0u64..(1 << 48), size_idx in 0usize..3) {
        let size = PageSize::ALL[size_idx];
        let va = VirtAddr::new(raw);
        prop_assert_eq!(va.page_base(size).raw() + va.page_offset(size), raw);
    }

    #[test]
    fn align_up_ge_align_down(raw in 0u64..(1 << 47), size_idx in 0usize..3) {
        let size = PageSize::ALL[size_idx];
        let pa = PhysAddr::new(raw);
        prop_assert!(pa.align_up(size).raw() >= pa.align_down(size).raw());
        prop_assert!(pa.align_up(size).raw() - raw < size.bytes());
    }

    #[test]
    fn page_number_floor_roundtrip(raw in 0u64..(1 << 48), size_idx in 0usize..3) {
        let size = PageSize::ALL[size_idx];
        let va = VirtAddr::new(raw);
        prop_assert_eq!(va.page_number(size).floor(size), va.page_base(size));
    }

    #[test]
    fn running_stats_mean_bounded_by_extrema(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = RunningStats::new();
        for &v in &values {
            s.record(v);
        }
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert_eq!(s.count(), values.len() as u64);
    }

    #[test]
    fn outlier_contribution_is_a_fraction(values in prop::collection::vec(0.0f64..1e6, 1..100), threshold in 0.0f64..1e6) {
        let mut lat = LatencyStats::new();
        for &v in &values {
            lat.record(v);
        }
        let c = lat.outlier_contribution(threshold);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
    }

    #[test]
    fn histogram_total_matches_records(values in prop::collection::vec(0u64..10_000, 0..300)) {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), values.len() as u64);
    }

    #[test]
    fn cosine_similarity_bounded(a in prop::collection::vec(0.0f64..1e6, 1..50), b in prop::collection::vec(0.0f64..1e6, 1..50)) {
        let sim = cosine_similarity(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&sim));
    }

    #[test]
    fn cosine_similarity_self_is_one(a in prop::collection::vec(1.0f64..1e6, 1..50)) {
        let sim = cosine_similarity(&a, &a);
        prop_assert!((sim - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_bounded(est in 0.0f64..1e9, reference in 1e-3f64..1e9) {
        let acc = accuracy(est, reference);
        prop_assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn geometric_mean_between_extremes(values in prop::collection::vec(1e-3f64..1e6, 1..50)) {
        let g = geometric_mean(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= min * 0.999);
        prop_assert!(g <= max * 1.001);
    }

    #[test]
    fn rng_is_deterministic(seed in any::<u64>()) {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_range_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..32 {
            let v = rng.gen_range(lo, lo + span);
            prop_assert!(v >= lo && v < lo + span);
        }
    }
}
