//! Request classes: quality tiers, deadlines, and retry budgets.
//!
//! A request class is the serving-side *contract* for a family of requests:
//! a ladder of quality tiers (significance + work factor, best first), an
//! arrival-relative deadline, and a retry policy for transient failures.
//! The admission controller degrades a request by admitting it at a lower
//! tier of its own ladder — the serving analogue of the paper's per-task
//! `significant(...)` clause, priced per request instead of per group.

use std::time::Duration;

use crate::rng::SplitMix64;

/// One rung of a request class's degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityTier {
    /// Significance of tasks spawned for this tier, in `[0, 1]`. Tier 0 of
    /// a class is its full-quality contract; lower tiers carry lower
    /// significance, placing them earlier in brownout shed order.
    pub significance: f64,
    /// Relative computational cost of this tier (tier 0 ≡ 1.0); lower tiers
    /// do proportionally less work, e.g. a perforated loop or coarser model.
    pub work_factor: f64,
}

/// Jittered exponential backoff budgeted against a deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retry attempts after the initial one (0 = never retry).
    pub max_retries: u32,
    /// Backoff before retry #1; doubles each further attempt.
    pub base_backoff: Duration,
    /// Uniform jitter fraction in `[0, 1]`: the backoff is scaled by a
    /// factor drawn from `[1 - jitter, 1 + jitter]`, decorrelating retry
    /// storms after a mass failure.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries at all.
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// The backoff before retry `attempt` (1-based), with seeded jitter.
    pub fn backoff_nanos(&self, attempt: u32, rng: &mut SplitMix64) -> u64 {
        if attempt == 0 || self.base_backoff.is_zero() {
            return 0;
        }
        let exponent = (attempt - 1).min(20);
        let base = self.base_backoff.as_nanos() as f64 * (1u64 << exponent) as f64;
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scale = 1.0 - jitter + 2.0 * jitter * rng.next_f64();
        (base * scale) as u64
    }
}

/// A request class: the quality ladder, deadline, and retry contract shared
/// by every request of the class.
#[derive(Debug, Clone)]
pub struct RequestClass {
    /// Class name (reporting only).
    pub name: String,
    /// Degradation ladder, best (most significant, most work) tier first.
    /// Must be non-empty, with strictly non-increasing significance.
    pub tiers: Vec<QualityTier>,
    /// Arrival-relative deadline: the request's SLO.
    pub deadline: Duration,
    /// Retry contract for transient (`Panicked`/`Cancelled`) attempt
    /// failures.
    pub retry: RetryPolicy,
}

impl RequestClass {
    /// A single-tier class: full quality or nothing (the "exact-only"
    /// baseline).
    pub fn exact(name: &str, significance: f64, deadline: Duration, retry: RetryPolicy) -> Self {
        RequestClass {
            name: name.to_string(),
            tiers: vec![QualityTier {
                significance,
                work_factor: 1.0,
            }],
            deadline,
            retry,
        }
    }

    /// The significance of the class's *best* tier — what admission ordering
    /// and shed ordering key on.
    pub fn significance(&self) -> f64 {
        self.tiers.first().map_or(0.0, |tier| tier.significance)
    }

    /// Clamp a tier index into the ladder.
    pub fn clamp_tier(&self, tier: usize) -> usize {
        tier.min(self.tiers.len().saturating_sub(1))
    }

    /// Panic unless the ladder is well-formed (non-empty, significances in
    /// `[0, 1]` and non-increasing, work factors in `(0, 1]` after tier 0).
    pub fn validate(&self) {
        assert!(!self.tiers.is_empty(), "class {} has no tiers", self.name);
        for tier in &self.tiers {
            assert!(
                (0.0..=1.0).contains(&tier.significance),
                "class {}: tier significance {} is outside [0, 1]",
                self.name,
                tier.significance
            );
        }
        for pair in self.tiers.windows(2) {
            assert!(
                pair[1].significance <= pair[0].significance,
                "class {}: tier significance must be non-increasing",
                self.name
            );
        }
        for tier in &self.tiers {
            assert!(
                tier.work_factor > 0.0 && tier.work_factor <= 1.0,
                "class {}: work factors must be in (0, 1]",
                self.name
            );
        }
    }
}

/// Why a request counted as an SLO violation. Violations are *accounted
/// losses*: the request is reported, never silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// The final attempt completed after the deadline.
    Late,
    /// A transient failure exhausted the retry budget.
    RetriesExhausted,
    /// A retry was still allowed, but the remaining deadline budget could
    /// not fit backoff plus expected service.
    BudgetExhausted,
    /// The request was cancelled by the caller mid-flight.
    Cancelled,
}

/// Terminal accounting state of one request: exactly one of these per
/// offered request (the serving-level accounting identity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestOutcome {
    /// Completed within its deadline at `tier`, after `retries` retries.
    Completed {
        /// Tier the successful attempt ran at.
        tier: usize,
        /// Arrival-to-completion latency in nanoseconds.
        latency_nanos: u64,
        /// Number of retries the request consumed.
        retries: u32,
    },
    /// Counted against the SLO for the given reason.
    Violated(ViolationKind),
    /// Shed by admission control (or runtime brownout) — deliberate load
    /// shedding, reported as such.
    Shed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_jitters_within_bounds() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            jitter: 0.5,
        };
        let mut rng = SplitMix64::new(11);
        for attempt in 1..=3u32 {
            let nominal = 1_000_000u64 << (attempt - 1);
            for _ in 0..100 {
                let backoff = policy.backoff_nanos(attempt, &mut rng);
                assert!(
                    backoff >= nominal / 2 && backoff <= nominal * 3 / 2,
                    "attempt {attempt}: {backoff} outside [{}, {}]",
                    nominal / 2,
                    nominal * 3 / 2
                );
            }
        }
        assert_eq!(policy.backoff_nanos(0, &mut rng), 0);
        assert_eq!(RetryPolicy::none().backoff_nanos(1, &mut rng), 0);
    }

    #[test]
    fn class_helpers() {
        let class = RequestClass {
            name: "search".into(),
            tiers: vec![
                QualityTier {
                    significance: 0.9,
                    work_factor: 1.0,
                },
                QualityTier {
                    significance: 0.5,
                    work_factor: 0.4,
                },
            ],
            deadline: Duration::from_millis(10),
            retry: RetryPolicy::none(),
        };
        class.validate();
        assert_eq!(class.significance(), 0.9);
        assert_eq!(class.clamp_tier(7), 1);
        let exact = RequestClass::exact("x", 1.0, Duration::from_secs(1), RetryPolicy::none());
        exact.validate();
        assert_eq!(exact.tiers.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn validate_rejects_increasing_significance() {
        RequestClass {
            name: "bad".into(),
            tiers: vec![
                QualityTier {
                    significance: 0.2,
                    work_factor: 1.0,
                },
                QualityTier {
                    significance: 0.8,
                    work_factor: 0.5,
                },
            ],
            deadline: Duration::from_millis(1),
            retry: RetryPolicy::none(),
        }
        .validate();
    }

    fn exact_at(significance: f64) {
        RequestClass::exact(
            "x",
            significance,
            Duration::from_secs(1),
            RetryPolicy::none(),
        )
        .validate();
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn validate_rejects_nan_significance() {
        exact_at(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn validate_rejects_negative_significance() {
        exact_at(-0.1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn validate_rejects_significance_above_one() {
        exact_at(1.5);
    }
}
