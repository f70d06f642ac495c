//! Task significance values.
//!
//! The programming model (Section 2 of the paper) characterises every task
//! with a *significance* in `[0.0, 1.0]` describing how strongly the task
//! contributes to the quality of the final program output. The special values
//! `1.0` and `0.0` mark tasks that must unconditionally be executed accurately
//! and approximately, respectively.
//!
//! Internally the runtime's LQH policy works on 101 discrete levels
//! (`0.00, 0.01, …, 1.00`), "to simplify the implementation" (Section 3.4);
//! [`SignificanceLevel`] is that quantised form.
//!
//! [`SignificanceCutoff`] is the one rule by which the runtime's brownout,
//! serving admission and fleet admission drop the least significant work
//! first as pressure rises.

use std::cmp::Ordering;
use std::fmt;

/// Number of discrete significance levels used by the runtime (Section 3.4:
/// "we implement 101 discrete (integer) levels").
pub const NUM_LEVELS: usize = 101;

/// A task's significance: a finite value in `[0.0, 1.0]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Significance(f64);

impl Significance {
    /// Significance `1.0`: the task must always run its accurate version.
    pub const CRITICAL: Significance = Significance(1.0);

    /// Create a significance value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or outside `[0.0, 1.0]`.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && (0.0..=1.0).contains(&value),
            "significance must be a finite value in [0.0, 1.0], got {value}"
        );
        Significance(value)
    }

    /// The raw value in `[0.0, 1.0]`.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Whether this task must unconditionally execute accurately
    /// (significance exactly `1.0`).
    pub fn is_critical(self) -> bool {
        self.0 >= 1.0
    }

    /// Whether this task may unconditionally execute approximately
    /// (significance exactly `0.0`).
    pub fn is_negligible(self) -> bool {
        self.0 <= 0.0
    }

    /// Quantise to one of the runtime's 101 discrete levels: the nearest,
    /// halves rounded up.
    pub fn level(self) -> SignificanceLevel {
        SignificanceLevel(round_percent(self.0 * 100.0))
    }
}

/// `y.round() as u8` for `y` in `[0, 100]`, without the software `round`
/// the x86-64 baseline calls (it has no SSE4.1 `roundsd`); GTB decides on
/// levels, about three per task. Adding one half and truncating rounds
/// halves up like `round`, and is exact here: below 0.5 the sum can round up
/// to 1.0 (the double just below 0.5 does), so that range is 0 outright;
/// from 0.5 on, the sum is exact unless it crosses into the next binade,
/// where `round` rounds up too.
fn round_percent(y: f64) -> u8 {
    if y < 0.5 {
        0
    } else {
        (y + 0.5) as u8
    }
}

impl Default for Significance {
    /// Tasks default to critical significance: unannotated code must never be
    /// silently approximated.
    fn default() -> Self {
        Significance::CRITICAL
    }
}

impl Eq for Significance {}

impl PartialOrd for Significance {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Significance {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are guaranteed finite, so total order is well-defined.
        self.0
            .partial_cmp(&other.0)
            .expect("significance is finite")
    }
}

impl From<f64> for Significance {
    fn from(value: f64) -> Self {
        Significance::new(value)
    }
}

impl fmt::Display for Significance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

/// A significance value quantised to the runtime's 101 discrete levels
/// (`0` = 0.00 … `100` = 1.00).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignificanceLevel(u8);

impl SignificanceLevel {
    /// The highest level (significance 1.00).
    pub const MAX: SignificanceLevel = SignificanceLevel(100);

    /// Create a level from an integer in `0..=100`.
    ///
    /// # Panics
    ///
    /// Panics if `level > 100`.
    pub fn new(level: u8) -> Self {
        assert!(
            (level as usize) < NUM_LEVELS,
            "significance level must be in 0..=100, got {level}"
        );
        SignificanceLevel(level)
    }

    /// The integer level in `0..=100`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<Significance> for SignificanceLevel {
    fn from(s: Significance) -> Self {
        s.level()
    }
}

impl fmt::Display for SignificanceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The one pressure → significance ramp by which every load controller
/// drops the least significant work first: the runtime's brownout, serving
/// admission and fleet admission. Stateless; a caller that wants
/// hysteresis keeps its own flag (serving admission does).
///
/// Between `degrade_start` and `shed_start` pressure the degrade depth
/// rises from 0 to 1; between `shed_start` and `shed_full` the shed cutoff
/// rises from 0 to `max_shed_significance`. Work whose significance is
/// strictly below the cutoff is shed, so the shed set is always a prefix of
/// the significance axis, and with the cutoff at most 1.0, significance 1.0
/// is never shed. A caller with several sources of pressure takes the
/// strictest, by `max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignificanceCutoff {
    /// Pressure at which degradation begins.
    pub degrade_start: f64,
    /// Pressure at which shedding begins; degradation is fully engaged by
    /// then.
    pub shed_start: f64,
    /// Pressure at which the shed cutoff reaches `max_shed_significance`.
    pub shed_full: f64,
    /// Upper bound on the shed cutoff.
    pub max_shed_significance: f64,
}

impl SignificanceCutoff {
    /// Degradation depth in `[0, 1]` at `pressure`: 0 up to
    /// `degrade_start`, 1 from `shed_start` on.
    pub fn degrade_depth(&self, pressure: f64) -> f64 {
        let span = self.shed_start - self.degrade_start;
        ((pressure - self.degrade_start) / span).clamp(0.0, 1.0)
    }

    /// Shed cutoff over significance at `pressure`: work strictly below it
    /// is shed. 0 up to `shed_start`, `max_shed_significance` from
    /// `shed_full` on.
    pub fn shed_cutoff(&self, pressure: f64) -> f64 {
        let span = self.shed_full - self.shed_start;
        let depth = ((pressure - self.shed_start) / span).clamp(0.0, 1.0);
        self.max_shed_significance * depth
    }

    /// Checks a configured ramp: the knees in order, and the cutoff bounded
    /// in `[0, 1)`, so that critical work is never shed (NaN fails too).
    ///
    /// # Panics
    ///
    /// Panics if either check fails.
    pub fn validate(&self) {
        assert!(self.degrade_start < self.shed_start, "knees out of order");
        assert!(self.shed_start < self.shed_full, "knees out of order");
        let max = self.max_shed_significance;
        assert!((0.0..1.0).contains(&max), "cutoff bound outside [0, 1)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `round_percent` is `f64::round` on `[0, 100]`: on a dense sweep, on
    /// every `k + 0.5`, and one ulp either side of each.
    #[test]
    fn round_percent_matches_round_on_every_level() {
        let check = |y: f64| {
            assert_eq!(round_percent(y), y.round() as u8, "at {y:e}");
        };
        for i in 0..=1_000_000u32 {
            check(f64::from(i) * 1e-4);
        }
        for k in 0..100u32 {
            let half = f64::from(k) + 0.5;
            check(half);
            check(f64::from_bits(half.to_bits() - 1));
            check(f64::from_bits(half.to_bits() + 1));
        }
        check(0.0);
        check(100.0);
        check(f64::from_bits(100.0f64.to_bits() - 1));
        check(f64::from_bits(0.5f64.to_bits() - 1));
    }

    #[test]
    fn construction_and_accessors() {
        let s = Significance::new(0.35);
        assert_eq!(s.value(), 0.35);
        assert!(!s.is_critical());
        assert!(!s.is_negligible());
    }

    #[test]
    fn special_values() {
        assert!(Significance::CRITICAL.is_critical());
        assert!(Significance::new(1.0).is_critical());
        assert!(Significance::new(0.0).is_negligible());
    }

    #[test]
    #[should_panic(expected = "significance must be")]
    fn out_of_range_panics() {
        Significance::new(1.5);
    }

    #[test]
    #[should_panic(expected = "significance must be")]
    fn nan_panics() {
        Significance::new(f64::NAN);
    }

    #[test]
    fn ordering_is_by_value() {
        let mut v = [
            Significance::new(0.9),
            Significance::new(0.1),
            Significance::new(0.5),
        ];
        v.sort();
        assert_eq!(v[0].value(), 0.1);
        assert_eq!(v[2].value(), 0.9);
    }

    #[test]
    fn default_is_critical() {
        assert!(Significance::default().is_critical());
    }

    #[test]
    fn quantisation_to_levels() {
        assert_eq!(Significance::new(0.0).level().index(), 0);
        assert_eq!(Significance::new(1.0).level(), SignificanceLevel::MAX);
        assert_eq!(Significance::new(0.35).level().index(), 35);
        assert_eq!(Significance::new(0.349).level().index(), 35);
        assert_eq!(Significance::new(0.344).level().index(), 34);
    }

    #[test]
    #[should_panic(expected = "0..=100")]
    fn level_out_of_range_panics() {
        SignificanceLevel::new(101);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Significance::new(0.35).to_string(), "0.35");
        assert_eq!(SignificanceLevel::new(7).to_string(), "7");
    }

    #[test]
    fn from_f64_conversion() {
        let s: Significance = 0.25.into();
        assert_eq!(s.value(), 0.25);
    }
}
