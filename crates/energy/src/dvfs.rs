//! Dynamic voltage/frequency scaling (DVFS) hook.
//!
//! Section 6 of the paper lists "DVFS in conjunction with suitable runtime
//! policies for executing approximate (and more light-weight) task versions on
//! the slower but also less power-hungry CPUs" as future work. This module
//! provides the modelling hook for exploring that scenario: a frequency scale
//! that adjusts both execution time and active power using the classic
//! `P ∝ f·V²` (≈ cubic in frequency when voltage tracks frequency) rule.

use serde::{Deserialize, Serialize};

use crate::power::PowerModel;

/// A relative CPU frequency setting.
///
/// `1.0` is nominal frequency. Values below one slow execution down but lower
/// the per-core active power superlinearly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyScale {
    ratio: f64,
    /// Exponent applied to the frequency ratio when scaling active power.
    /// The default of 2.4 sits between the pure-dynamic `f·V² ≈ f³` model and
    /// the linear leakage-dominated regime.
    power_exponent: f64,
}

impl FrequencyScale {
    /// Create a scale at the given frequency ratio with the default power
    /// exponent.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `(0, 1.5]` (turbo beyond 1.5× nominal is
    /// outside the model's validity range).
    pub fn new(ratio: f64) -> Self {
        Self::with_exponent(ratio, 2.4)
    }

    /// Create a scale with an explicit power exponent.
    pub fn with_exponent(ratio: f64, power_exponent: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.5,
            "frequency ratio must be in (0, 1.5], got {ratio}"
        );
        assert!(power_exponent >= 1.0, "power exponent must be >= 1");
        FrequencyScale {
            ratio,
            power_exponent,
        }
    }

    /// Nominal frequency (no scaling).
    pub fn nominal() -> Self {
        FrequencyScale::new(1.0)
    }

    /// The frequency ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The exponent applied to the frequency ratio when scaling active
    /// power.
    pub fn power_exponent(&self) -> f64 {
        self.power_exponent
    }

    /// Whether this scale is the identity (nominal frequency). Used by the
    /// runtime's dispatch hot path to skip all scaling arithmetic.
    pub fn is_nominal(&self) -> bool {
        self.ratio == 1.0
    }

    /// Per-core active power under this frequency setting, in watts. Static
    /// and idle power do not scale (they are largely frequency-independent).
    pub fn scaled_active_watts(&self, model: &PowerModel) -> f64 {
        model.active_watts_per_core * self.power_factor()
    }

    /// An evenly spaced ladder of `steps` frequency settings from `floor` up
    /// to nominal (inclusive), highest first — the shape of a P-state table.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or `floor` is outside `(0, 1]`.
    pub fn ladder(steps: usize, floor: f64) -> Vec<FrequencyScale> {
        assert!(steps > 0, "a frequency ladder needs at least one step");
        assert!(
            floor > 0.0 && floor <= 1.0,
            "ladder floor must be in (0, 1], got {floor}"
        );
        (0..steps)
            .map(|i| {
                let t = if steps == 1 {
                    0.0
                } else {
                    i as f64 / (steps - 1) as f64
                };
                FrequencyScale::new(1.0 - t * (1.0 - floor))
            })
            .collect()
    }

    /// How much longer a CPU-bound region takes at this frequency.
    pub fn time_dilation(&self) -> f64 {
        1.0 / self.ratio
    }

    /// Multiplier applied to per-core active power at this frequency.
    pub fn power_factor(&self) -> f64 {
        self.ratio.powf(self.power_exponent)
    }

    /// Energy factor for a fixed amount of CPU-bound work executed entirely
    /// on active cores at this frequency, ignoring static power:
    /// `time_dilation · power_factor`.
    ///
    /// Values below 1 mean the frequency reduction saves dynamic energy for
    /// that work (the usual DVFS trade-off ignoring race-to-idle).
    pub fn dynamic_energy_factor(&self) -> f64 {
        self.time_dilation() * self.power_factor()
    }
}

impl Default for FrequencyScale {
    fn default() -> Self {
        FrequencyScale::nominal()
    }
}

/// Modelled cost of one DVFS frequency-domain switch.
///
/// Real frequency transitions are not free: the core stalls while the PLL
/// relocks and the voltage regulator ramps (tens of microseconds on
/// contemporary parts), and the ramp itself burns energy. Governors that
/// thrash between steps pay this per switch; hysteresis exists to bound it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionCost {
    /// Wall-clock stall per frequency switch, in seconds. Extends the
    /// modelled makespan of a run by `switches × latency / workers`.
    pub latency_seconds: f64,
    /// Energy burned per frequency switch, in joules (regulator ramp + the
    /// stalled core's draw during the relock).
    pub energy_joules: f64,
}

impl TransitionCost {
    /// Build a transition cost, validating its parameters.
    ///
    /// # Panics
    ///
    /// Panics if either component is negative.
    pub fn new(latency_seconds: f64, energy_joules: f64) -> Self {
        assert!(
            latency_seconds >= 0.0,
            "transition latency must be non-negative, got {latency_seconds}"
        );
        assert!(
            energy_joules >= 0.0,
            "transition energy must be non-negative, got {energy_joules}"
        );
        TransitionCost {
            latency_seconds,
            energy_joules,
        }
    }

    /// Free transitions — the (idealised) accounting of runs that predate
    /// transition modelling, and the default.
    pub fn free() -> Self {
        TransitionCost::new(0.0, 0.0)
    }

    /// A typical contemporary DVFS transition: ~50 µs relock stall and
    /// ~150 µJ of ramp energy.
    pub fn typical() -> Self {
        TransitionCost::new(50e-6, 150e-6)
    }
}

impl Default for TransitionCost {
    fn default() -> Self {
        TransitionCost::free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_identity() {
        let s = FrequencyScale::nominal();
        assert_eq!(s.ratio(), 1.0);
        assert_eq!(s.time_dilation(), 1.0);
        assert!((s.power_factor() - 1.0).abs() < 1e-12);
        assert!((s.dynamic_energy_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_frequency_lowers_power_superlinearly() {
        let s = FrequencyScale::new(0.5);
        assert!(s.power_factor() < 0.5);
        assert_eq!(s.time_dilation(), 2.0);
        // Dynamic energy per unit of work drops despite the longer runtime.
        assert!(s.dynamic_energy_factor() < 1.0);
    }

    #[test]
    #[should_panic(expected = "frequency ratio")]
    fn zero_ratio_panics() {
        FrequencyScale::new(0.0);
    }

    #[test]
    #[should_panic(expected = "frequency ratio")]
    fn excessive_turbo_panics() {
        FrequencyScale::new(2.0);
    }

    #[test]
    fn linear_exponent_gives_no_dynamic_saving() {
        let s = FrequencyScale::with_exponent(0.5, 1.0);
        assert!((s.dynamic_energy_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nominal_detection() {
        assert!(FrequencyScale::nominal().is_nominal());
        assert!(!FrequencyScale::new(0.99).is_nominal());
    }

    #[test]
    fn ladder_spans_nominal_to_floor() {
        let steps = FrequencyScale::ladder(4, 0.4);
        assert_eq!(steps.len(), 4);
        assert!(steps[0].is_nominal());
        assert!((steps[3].ratio() - 0.4).abs() < 1e-12);
        for pair in steps.windows(2) {
            assert!(pair[0].ratio() > pair[1].ratio());
        }
        let single = FrequencyScale::ladder(1, 0.5);
        assert!(single[0].is_nominal());
    }

    #[test]
    fn transition_cost_defaults_to_free() {
        assert_eq!(TransitionCost::default(), TransitionCost::new(0.0, 0.0));
        assert!(TransitionCost::typical().latency_seconds > 0.0);
        assert!(TransitionCost::typical().energy_joules > 0.0);
    }

    #[test]
    #[should_panic(expected = "transition latency")]
    fn negative_transition_latency_rejected() {
        TransitionCost::new(-1.0, 0.0);
    }
}
