//! A fixed-bucket logarithmic latency histogram.
//!
//! Serving needs tail percentiles (p50/p99) over millions of samples without
//! keeping the samples. The sketch uses HDR-style log bucketing: 32 linear
//! sub-buckets per power of two, giving a guaranteed relative error ≤ 1/32
//! (~3.1%) over the full `u64` nanosecond range. The buckets are fixed — 1 920
//! of them cover all of `u64` — but a sketch stores counts only for the range
//! between the lowest and the highest bucket it has seen, so its footprint
//! follows the spread of its samples. Sketches are **mergeable**
//! (bucket-wise addition), so per-worker or per-phase sketches fold into one
//! without precision loss beyond the bucket width.

/// Sub-buckets per octave as a power of two: 2^5 = 32.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (value >> shift) - SUB_COUNT;
    (((shift + 1) as u64 * SUB_COUNT) + sub) as usize
}

/// Inclusive upper bound of a bucket: the conservative (never
/// under-reporting) representative value for percentile queries.
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        return index;
    }
    let octave = index >> SUB_BITS; // ≥ 1
    let sub = index & (SUB_COUNT - 1);
    let low = (SUB_COUNT + sub) << (octave - 1);
    // The topmost bucket's upper bound is u64::MAX: saturate instead of
    // wrapping past it.
    low.saturating_add((1u64 << (octave - 1)) - 1)
}

/// Mergeable log-bucket latency histogram (values in nanoseconds).
#[derive(Clone, Default)]
pub struct LatencySketch {
    /// Counts of buckets `first..first + counts.len()`, the span of the
    /// buckets recorded so far (empty while nothing is).
    counts: Vec<u64>,
    first: usize,
    count: u64,
    sum: u128,
    max: u64,
}

impl LatencySketch {
    /// An empty sketch.
    pub fn new() -> Self {
        LatencySketch::default()
    }

    /// Widen the stored span to include bucket `index`.
    fn cover(&mut self, index: usize) {
        if self.counts.is_empty() {
            self.first = index;
            self.counts.push(0);
        } else if index < self.first {
            let missing = self.first - index;
            self.counts.splice(0..0, std::iter::repeat_n(0, missing));
            self.first = index;
        } else if index >= self.first + self.counts.len() {
            self.counts.resize(index + 1 - self.first, 0);
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, nanos: u64) {
        let index = bucket_index(nanos);
        if index.wrapping_sub(self.first) >= self.counts.len() {
            self.cover(index);
        }
        self.counts[index - self.first] += 1;
        self.count += 1;
        self.sum += nanos as u128;
        self.max = self.max.max(nanos);
    }

    /// Fold `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &LatencySketch) {
        if let Some(last) = other.counts.len().checked_sub(1) {
            self.cover(other.first);
            self.cover(other.first + last);
            let start = other.first - self.first;
            for (mine, theirs) in self.counts[start..].iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples, in nanoseconds.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum recorded sample, in nanoseconds.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`) in nanoseconds, reported as the
    /// upper bound of the bucket holding the target rank — conservative, so
    /// an SLO check against the sketch never passes a latency the exact
    /// distribution would fail. Returns 0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (offset, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return bucket_upper(self.first + offset).min(self.max);
            }
        }
        self.max
    }
}

impl std::fmt::Debug for LatencySketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencySketch")
            .field("count", &self.count)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Bucket count covering all of `u64`: one 32-wide linear region plus 59
    /// octaves of 32 sub-buckets.
    const BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB_COUNT as usize) + SUB_COUNT as usize;

    /// The sketch as it was before it stored only its occupied span: every
    /// bucket, boxed. The oracle the span-sized one must agree with.
    struct Reference {
        counts: Box<[u64]>,
        count: u64,
        sum: u128,
        max: u64,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                counts: vec![0; BUCKETS].into_boxed_slice(),
                count: 0,
                sum: 0,
                max: 0,
            }
        }

        fn record(&mut self, nanos: u64) {
            self.counts[bucket_index(nanos)] += 1;
            self.count += 1;
            self.sum += nanos as u128;
            self.max = self.max.max(nanos);
        }

        fn merge(&mut self, other: &Reference) {
            for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
                *mine += theirs;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.max = self.max.max(other.max);
        }

        fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            }
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let q = q.clamp(0.0, 1.0);
            let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut seen = 0u64;
            for (index, &count) in self.counts.iter().enumerate() {
                seen += count;
                if seen >= target {
                    return bucket_upper(index).min(self.max);
                }
            }
            self.max
        }
    }

    fn assert_agrees(sketch: &LatencySketch, reference: &Reference, what: &str) {
        assert_eq!(sketch.count(), reference.count, "{what}: count");
        assert_eq!(sketch.max(), reference.max, "{what}: max");
        assert_eq!(
            sketch.mean().to_bits(),
            reference.mean().to_bits(),
            "{what}: mean"
        );
        for q in [0.0, 1e-9, 0.5, 0.99, 1.0] {
            assert_eq!(
                sketch.quantile(q),
                reference.quantile(q),
                "{what}: quantile {q}"
            );
        }
    }

    /// Sample sets covering the edges of the bucketing (0, the last linear
    /// bucket 31, the first logarithmic one 32, `u64::MAX`), empty and
    /// single-sample sketches, spans that only grow downwards, and seeded
    /// values over every magnitude.
    fn sample_sets() -> Vec<Vec<u64>> {
        let mut rng = SplitMix64::new(0x5ce7c4);
        let wide = (0..500)
            .map(|_| rng.next_u64() >> (rng.next_u64() % 64))
            .collect();
        let narrow = (0..1_000)
            .map(|_| 1_000_000 + rng.next_u64() % 100_000)
            .collect();
        vec![
            vec![],
            vec![0],
            vec![777],
            vec![u64::MAX],
            vec![0, 31, 32, u64::MAX],
            (0..64).collect(),
            (0..40).map(|shift| u64::MAX >> shift).collect(),
            wide,
            narrow,
        ]
    }

    #[test]
    fn span_sized_sketch_agrees_with_the_full_bucket_reference() {
        let build = |samples: &[u64]| {
            let mut sketch = LatencySketch::new();
            let mut reference = Reference::new();
            for &value in samples {
                sketch.record(value);
                reference.record(value);
            }
            (sketch, reference)
        };
        let sets = sample_sets();
        for (i, samples) in sets.iter().enumerate() {
            let (sketch, reference) = build(samples);
            assert_agrees(&sketch, &reference, &format!("set {i}"));
        }
        // Every ordered pair, a set with itself included: disjoint spans
        // (below and above), overlapping ones, equal ones, and empty sketches
        // on either side.
        for (i, left) in sets.iter().enumerate() {
            for (j, right) in sets.iter().enumerate() {
                let (mut sketch, mut reference) = build(left);
                let (other, other_reference) = build(right);
                sketch.merge(&other);
                reference.merge(&other_reference);
                assert_agrees(&sketch, &reference, &format!("set {i} merged with {j}"));
            }
        }
    }

    #[test]
    fn a_sketch_stores_only_its_occupied_span() {
        let mut sketch = LatencySketch::new();
        assert!(sketch.counts.is_empty());
        for value in 1..=10_000u64 {
            sketch.record(value * 1_000);
        }
        let span = bucket_index(10_000_000) - bucket_index(1_000) + 1;
        assert_eq!(
            (sketch.first, sketch.counts.len()),
            (bucket_index(1_000), span)
        );
        assert!(span < BUCKETS / 4, "{span} of {BUCKETS} buckets");
    }

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut previous = None;
        for value in [0u64, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, u64::MAX] {
            let index = bucket_index(value);
            assert!(index < BUCKETS, "index {index} for {value}");
            assert!(bucket_upper(index) >= value, "upper bound covers {value}");
            if let Some((prev_value, prev_index)) = previous {
                assert!(prev_value < value);
                assert!(prev_index <= index, "monotone bucketing");
            }
            previous = Some((value, index));
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for value in (1u64..100_000).step_by(97) {
            let upper = bucket_upper(bucket_index(value));
            let error = (upper - value) as f64 / value as f64;
            assert!(error <= 1.0 / 32.0 + 1e-9, "error {error} at {value}");
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut sketch = LatencySketch::new();
        for value in 1..=10_000u64 {
            sketch.record(value * 1_000); // 1 µs .. 10 ms, uniform
        }
        assert_eq!(sketch.count(), 10_000);
        let p50 = sketch.quantile(0.5) as f64;
        let p99 = sketch.quantile(0.99) as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.05, "p50 {p50}");
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.05, "p99 {p99}");
        assert_eq!(sketch.max(), 10_000_000);
        assert!((sketch.mean() - 5_000_500.0 * 1_000.0 / 1_000.0).abs() < 1_000.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut left = LatencySketch::new();
        let mut right = LatencySketch::new();
        let mut combined = LatencySketch::new();
        for i in 0..1000u64 {
            let value = i * i;
            if i % 2 == 0 {
                left.record(value);
            } else {
                right.record(value);
            }
            combined.record(value);
        }
        left.merge(&right);
        assert_eq!(left.count(), combined.count());
        assert_eq!(left.max(), combined.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(left.quantile(q), combined.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn empty_and_single_sample_edge_cases() {
        let mut sketch = LatencySketch::new();
        assert_eq!(sketch.quantile(0.99), 0);
        assert_eq!(sketch.mean(), 0.0);
        sketch.record(777);
        assert_eq!(sketch.quantile(0.0), sketch.quantile(1.0));
        assert_eq!(sketch.quantile(0.5).min(777 + 24), sketch.quantile(0.5));
        assert_eq!(sketch.max(), 777);
    }
}
