//! Open-loop load generation: a seeded Poisson arrival schedule.
//!
//! Open-loop means arrivals do **not** wait for completions — the schedule
//! is fixed up front, so overload is expressible: at 2× capacity the
//! generator keeps submitting at 2× capacity no matter how far behind the
//! server falls. The schedule is a pure function of the rate and a seed, so
//! live runs and the deterministic simulator replay the identical schedule.

use crate::rng::SplitMix64;

const NANOS_PER_SEC: f64 = 1e9;

/// A seeded arrival process producing *offsets in nanoseconds from the start
/// of the run*, sorted ascending.
#[derive(Debug, Clone)]
pub enum ArrivalPattern {
    /// Memoryless Poisson arrivals at `rate_per_sec`.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_sec: f64,
    },
}

impl ArrivalPattern {
    /// The first `count` arrival offsets of the seeded schedule, in
    /// nanoseconds, ascending.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and positive: an infinite rate would
    /// put every arrival at offset 0.
    pub fn schedule(&self, seed: u64, count: usize) -> Vec<u64> {
        let ArrivalPattern::Poisson { rate_per_sec } = self;
        assert!(
            rate_per_sec.is_finite() && *rate_per_sec > 0.0,
            "Poisson rate must be finite and positive, got {rate_per_sec}"
        );
        let mut rng = SplitMix64::new(seed ^ 0xa55a_5aa5_0f0f_f0f0);
        let mut at = 0.0f64;
        (0..count)
            .map(|_| {
                at += rng.next_exp(rate_per_sec / NANOS_PER_SEC);
                at as u64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_sorted_deterministic_and_rate_accurate() {
        let pattern = ArrivalPattern::Poisson {
            rate_per_sec: 10_000.0,
        };
        let a = pattern.schedule(1, 20_000);
        let b = pattern.schedule(1, 20_000);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending offsets");
        let span_secs = *a.last().unwrap() as f64 / NANOS_PER_SEC;
        let rate = a.len() as f64 / span_secs;
        assert!(
            (rate - 10_000.0).abs() / 10_000.0 < 0.05,
            "empirical rate {rate} within 5% of nominal"
        );
        assert_ne!(a, pattern.schedule(2, 20_000), "seeds differ");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn infinite_rate_panics() {
        ArrivalPattern::Poisson {
            rate_per_sec: f64::INFINITY,
        }
        .schedule(1, 4);
    }
}
