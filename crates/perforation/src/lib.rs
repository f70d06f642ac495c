//! # sig-perforation — loop perforation baseline
//!
//! Loop perforation (Sidiroglou-Douskos et al., ESEC/FSE 2011) is the
//! comparator the paper evaluates against: a compiler transformation that
//! drops a fraction of a loop's iterations. "The perforated version executes
//! the same number of tasks as those executed accurately by our approach"
//! (Section 4.1), so the perforation *rate* is always derived from the same
//! ratio knob the significance runtime uses.
//!
//! This crate picks which iterations a perforated loop keeps; the
//! per-benchmark perforated drivers live next to each kernel in
//! `sig-kernels`.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which fraction of loop iterations to *keep* (execute).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerforationRate {
    keep: f64,
}

impl PerforationRate {
    /// Keep the given fraction of iterations (`1.0` = no perforation,
    /// `0.0` = drop everything).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is NaN or outside `[0.0, 1.0]`.
    pub fn keep(keep: f64) -> Self {
        assert!(
            keep.is_finite() && (0.0..=1.0).contains(&keep),
            "keep fraction must be in [0.0, 1.0], got {keep}"
        );
        PerforationRate { keep }
    }

    /// How many of `n` iterations are kept (rounded to nearest, clamped so
    /// that a non-zero keep fraction keeps at least one iteration of a
    /// non-empty loop).
    pub fn kept_count(self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let kept = (self.keep * n as f64).round() as usize;
        if self.keep > 0.0 {
            kept.clamp(1, n)
        } else {
            0
        }
    }
}

/// Deterministic, evenly spread selection of kept iteration indices in
/// `0..n` — the "interleaved" perforation scheme of the original paper,
/// which keeps every k-th iteration.
pub fn kept_indices(n: usize, rate: PerforationRate) -> Vec<usize> {
    let kept = rate.kept_count(n);
    if kept == 0 {
        return Vec::new();
    }
    if kept == n {
        return (0..n).collect();
    }
    // Spread the kept iterations evenly across the index space so the error
    // is distributed, mirroring interleaved perforation.
    (0..kept)
        .map(|i| (i as f64 * n as f64 / kept as f64).floor() as usize)
        .map(|idx| idx.min(n - 1))
        .collect()
}

/// Randomised selection of kept iteration indices (the "random" perforation
/// scheme), reproducible through the seed.
pub fn kept_indices_random(n: usize, rate: PerforationRate, seed: u64) -> Vec<usize> {
    let kept = rate.kept_count(n);
    if kept == 0 {
        return Vec::new();
    }
    if kept == n {
        return (0..n).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..n).collect();
    // Partial Fisher-Yates: select `kept` distinct indices.
    for i in 0..kept {
        let j = rng.gen_range(i..n);
        indices.swap(i, j);
    }
    let mut selected = indices[..kept].to_vec();
    selected.sort_unstable();
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "keep fraction")]
    fn invalid_rate_panics() {
        PerforationRate::keep(1.2);
    }

    #[test]
    fn kept_count_boundaries() {
        let r = PerforationRate::keep(0.5);
        assert_eq!(r.kept_count(0), 0);
        assert_eq!(r.kept_count(10), 5);
        assert_eq!(PerforationRate::keep(0.0).kept_count(10), 0);
        assert_eq!(PerforationRate::keep(1.0).kept_count(10), 10);
        // A tiny keep fraction still keeps at least one iteration.
        assert_eq!(PerforationRate::keep(0.01).kept_count(10), 1);
    }

    #[test]
    fn kept_indices_are_spread_and_sorted() {
        let idx = kept_indices(100, PerforationRate::keep(0.25));
        assert_eq!(idx.len(), 25);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        // Evenly spread: gaps of roughly 4.
        assert!(idx[1] - idx[0] >= 3 && idx[1] - idx[0] <= 5);
        assert!(*idx.last().unwrap() < 100);
    }

    #[test]
    fn kept_indices_full_and_empty() {
        assert_eq!(
            kept_indices(5, PerforationRate::keep(1.0)),
            vec![0, 1, 2, 3, 4]
        );
        assert!(kept_indices(5, PerforationRate::keep(0.0)).is_empty());
    }

    #[test]
    fn random_selection_is_deterministic_per_seed() {
        let a = kept_indices_random(50, PerforationRate::keep(0.4), 7);
        let b = kept_indices_random(50, PerforationRate::keep(0.4), 7);
        let c = kept_indices_random(50, PerforationRate::keep(0.4), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 20);
        let mut deduped = a.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), a.len(), "indices must be distinct");
    }

    #[test]
    fn kept_iterations_reach_the_tail_for_all_rates() {
        // For a range of rates, the deterministic scheme never clusters all
        // kept iterations at the front.
        for &rate in &[0.1, 0.2, 0.35, 0.5, 0.75, 0.9] {
            let idx = kept_indices(1000, PerforationRate::keep(rate));
            assert!(!idx.is_empty());
            let last = *idx.last().unwrap();
            assert!(
                last >= 900,
                "rate {rate}: last kept index {last} should reach the tail"
            );
        }
    }
}
