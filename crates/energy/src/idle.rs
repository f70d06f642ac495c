//! Idle-state (sleep) model for race-to-idle energy strategies.
//!
//! The paper's runtime saves energy by running approximate work at lower
//! DVFS steps (*slow-and-steady*). The classic alternative is
//! **race-to-idle**: finish the work at nominal frequency and drop the core
//! into a deep sleep state for the slack. Which strategy wins is decided by
//! the static/dynamic power split — deep sleep states gate leakage and
//! uncore power that frequency scaling cannot touch, while frequency scaling
//! cuts the `P ∝ f·V²` dynamic term that sleeping cannot. This module models
//! the sleep side of that trade-off: a [`SleepState`] describes the residency
//! power of a sleeping core, the fraction of its share of socket static
//! power the state gates off, and the latency paid to wake up.

use serde::{Deserialize, Serialize};

use crate::power::PowerModel;

/// A CPU idle (sleep) state — the modelled analogue of an ACPI C-state.
///
/// Race-to-idle accounting prices a worker's earned slack at this state's
/// power instead of the power model's (shallow-halt) idle watts, gates off a
/// fraction of the core's share of socket static power, and charges one wake
/// transition per sleep entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleepState {
    /// Power drawn by a core resident in this state, in watts. Deeper states
    /// draw less than the power model's `idle_watts_per_core` (a shallow
    /// halt).
    pub watts_per_core: f64,
    /// Fraction of the sleeping core's share of socket static power
    /// (`static_watts_per_socket / cores_per_socket`) that is gated off
    /// while the core is resident. This is what lets race-to-idle beat
    /// slow-and-steady on static-heavy packages: stretched execution keeps
    /// the whole package awake, deep sleep does not.
    pub static_fraction_saved: f64,
    /// Time to return to nominal execution from this state, in seconds.
    /// Charged once per sleep entry, priced at nominal active power.
    pub wake_latency_seconds: f64,
}

impl SleepState {
    /// Build a sleep state, validating its parameters.
    ///
    /// # Panics
    ///
    /// Panics if `watts_per_core` or `wake_latency_seconds` is negative, or
    /// `static_fraction_saved` is outside `[0, 1]`.
    pub fn new(watts_per_core: f64, static_fraction_saved: f64, wake_latency_seconds: f64) -> Self {
        assert!(
            watts_per_core >= 0.0,
            "sleep power must be non-negative, got {watts_per_core}"
        );
        assert!(
            (0.0..=1.0).contains(&static_fraction_saved),
            "static fraction saved must be in [0, 1], got {static_fraction_saved}"
        );
        assert!(
            wake_latency_seconds >= 0.0,
            "wake latency must be non-negative, got {wake_latency_seconds}"
        );
        SleepState {
            watts_per_core,
            static_fraction_saved,
            wake_latency_seconds,
        }
    }

    /// A shallow halt: slightly below typical idle power, no static gating,
    /// near-instant wake — the state a core reaches between any two tasks.
    /// Racing into this state saves almost nothing over staying idle.
    pub fn shallow() -> Self {
        SleepState::new(1.0, 0.0, 2e-6)
    }

    /// A deep package sleep (C6-like): the core is power-gated (≈0.1 W),
    /// three quarters of its share of socket static power is gated with it,
    /// and waking costs ~100 µs. This is the state that makes race-to-idle
    /// pay off on static-heavy packages.
    pub fn deep() -> Self {
        SleepState::new(0.1, 0.75, 100e-6)
    }

    /// Net power saved per second of residency relative to a core sitting in
    /// the model's shallow idle: `idle_watts − sleep_watts` on the core
    /// itself plus the gated share of socket static power. Positive for any
    /// state deeper than the model's idle.
    fn watts_saved_vs_idle(&self, model: &PowerModel) -> f64 {
        (model.idle_watts_per_core - self.watts_per_core)
            + self.static_fraction_saved * model.static_watts_per_core()
    }

    /// Energy charged for one wake from this state, priced at the model's
    /// nominal active power (the core burns the wake latency doing no useful
    /// work).
    pub fn wake_joules(&self, model: &PowerModel) -> f64 {
        self.wake_latency_seconds * model.active_watts_per_core
    }

    /// Minimum residency for which entering this state saves energy at all:
    /// the wake cost divided by the net power saved. Residencies shorter
    /// than this are better spent in shallow idle. `f64::INFINITY` when the
    /// state saves nothing over idle.
    pub fn break_even_seconds(&self, model: &PowerModel) -> f64 {
        let saved = self.watts_saved_vs_idle(model);
        if saved <= 0.0 {
            f64::INFINITY
        } else {
            self.wake_joules(model) / saved
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_sleeps_below_shallow() {
        let deep = SleepState::deep();
        let shallow = SleepState::shallow();
        assert!(deep.watts_per_core < shallow.watts_per_core);
        assert!(deep.static_fraction_saved > shallow.static_fraction_saved);
        assert!(deep.wake_latency_seconds > shallow.wake_latency_seconds);
    }

    #[test]
    fn deep_state_saves_static_share() {
        let model = PowerModel::default();
        let deep = SleepState::deep();
        // 1.4 − 0.1 on the core plus 0.75 · 21/8 of socket static.
        let expected = (1.4 - 0.1) + 0.75 * 21.0 / 8.0;
        assert!((deep.watts_saved_vs_idle(&model) - expected).abs() < 1e-9);
    }

    #[test]
    fn break_even_is_wake_cost_over_savings() {
        let model = PowerModel::default();
        let deep = SleepState::deep();
        let expected = deep.wake_joules(&model) / deep.watts_saved_vs_idle(&model);
        assert!((deep.break_even_seconds(&model) - expected).abs() < 1e-12);
        assert!(deep.break_even_seconds(&model) > 0.0);
    }

    #[test]
    fn useless_state_never_breaks_even() {
        let model = PowerModel::default();
        // Draws more than idle, gates nothing: sleeping never pays.
        let hot = SleepState::new(5.0, 0.0, 1e-6);
        assert!(hot.watts_saved_vs_idle(&model) < 0.0);
        assert_eq!(hot.break_even_seconds(&model), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "static fraction")]
    fn static_fraction_above_one_rejected() {
        SleepState::new(0.1, 1.5, 1e-6);
    }

    #[test]
    #[should_panic(expected = "wake latency")]
    fn negative_wake_latency_rejected() {
        SleepState::new(0.1, 0.5, -1.0);
    }
}
