//! Property battery for the online energy-budget controller.
//!
//! Three contracts, fuzzed over the vendored deterministic proptest shim:
//!
//! 1. **Monotone in headroom** — from any identical controller state, a
//!    costlier observation (less budget headroom) never yields a *looser*
//!    setpoint: `ratio_scale`, `frequency_cap` and `watt_cap` are
//!    non-increasing in observed spend, `austerity` non-decreasing, and
//!    `exhausted` is upward-closed.
//! 2. **Split recovery** — driven by readings synthesised from an affine
//!    power model `J(t) = base·t + dynamic·busy(t)`, the controller's
//!    forgetting least-squares [`SplitEstimator`] recovers `(base, dynamic)`
//!    to within a tight relative epsilon once the utilisation trace has
//!    rank.
//! 3. **Bit-deterministic replay** — the controller is pure f64 state: the
//!    same observation sequence replays to bit-identical setpoints and
//!    spend, which is what lets the conformance kit and the budget bench
//!    compare traces with `to_bits` instead of tolerances.

// The vendored proptest shim expands token-by-token; several property
// blocks with doc comments exceed the default recursion limit.
#![recursion_limit = "512"]

use proptest::prelude::*;

use significance_repro::energy::{
    BudgetConfig, BudgetController, BudgetTarget, EnergyBreakdown, EnergyReading,
};

/// Wall seconds between consecutive observations.
const STEP_SECONDS: f64 = 0.25;

/// A cumulative reading at `elapsed` seconds with `busy` busy-core-seconds
/// and `joules` total spend.
fn reading(elapsed: f64, busy: f64, joules: f64) -> EnergyReading {
    EnergyReading {
        wall_seconds: elapsed,
        busy_core_seconds: busy,
        joules,
        average_watts: if elapsed > 0.0 { joules / elapsed } else { 0.0 },
        breakdown: EnergyBreakdown {
            dynamic_joules: joules,
            ..Default::default()
        },
    }
}

fn joule_config(joules: f64, horizon_seconds: f64) -> BudgetConfig {
    BudgetConfig::new(BudgetTarget::TotalJoules {
        joules,
        horizon_seconds,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fork one controller after an arbitrary shared prefix and feed the two
    /// copies a cheap vs a costly final observation: every setpoint field
    /// must move (weakly) in the tightening direction on the costly branch.
    #[test]
    fn setpoints_are_monotone_in_headroom(
        budget_joules in 5.0f64..50.0,
        prefix_watts in collection::vec(0.5f64..10.0, 0..20),
        final_watts_a in 0.5f64..10.0,
        final_watts_b in 0.5f64..10.0,
        utilisation in 0.0f64..2.0,
    ) {
        let horizon = (prefix_watts.len() + 2) as f64 * STEP_SECONDS * 4.0;
        let mut controller = BudgetController::new(joule_config(budget_joules, horizon));
        let mut elapsed = 0.0f64;
        let mut joules = 0.0f64;
        for watts in &prefix_watts {
            elapsed += STEP_SECONDS;
            joules += watts * STEP_SECONDS;
            controller.observe(elapsed, &reading(elapsed, utilisation * elapsed, joules));
        }
        let lo_watts = final_watts_a.min(final_watts_b);
        let hi_watts = final_watts_a.max(final_watts_b);
        elapsed += STEP_SECONDS;
        let busy = utilisation * elapsed;

        // `BudgetController` is `Copy`: fork the exact state.
        let mut fork_lo = controller;
        let mut fork_hi = controller;
        let sp_lo = fork_lo.observe(elapsed, &reading(elapsed, busy, joules + lo_watts * STEP_SECONDS));
        let sp_hi = fork_hi.observe(elapsed, &reading(elapsed, busy, joules + hi_watts * STEP_SECONDS));

        prop_assert!(
            sp_hi.austerity >= sp_lo.austerity,
            "less headroom lowered austerity: {} -> {}",
            sp_lo.austerity,
            sp_hi.austerity
        );
        prop_assert!(
            sp_hi.ratio_scale <= sp_lo.ratio_scale,
            "less headroom raised the ratio scale: {} -> {}",
            sp_lo.ratio_scale,
            sp_hi.ratio_scale
        );
        prop_assert!(
            sp_hi.frequency_cap <= sp_lo.frequency_cap,
            "less headroom raised the frequency cap: {} -> {}",
            sp_lo.frequency_cap,
            sp_hi.frequency_cap
        );
        prop_assert!(
            sp_hi.watt_cap <= sp_lo.watt_cap,
            "spending more raised the planned watt cap: {} -> {}",
            sp_lo.watt_cap,
            sp_hi.watt_cap
        );
        // Exhaustion is upward-closed in spend.
        prop_assert!(!sp_lo.exhausted || sp_hi.exhausted);
        // And both setpoints respect the configured floors.
        for sp in [sp_lo, sp_hi] {
            let config = controller.config();
            prop_assert!(sp.ratio_scale >= config.min_ratio_scale - 1e-12);
            prop_assert!(sp.ratio_scale <= 1.0 + 1e-12);
            prop_assert!(sp.frequency_cap >= config.cap_floor - 1e-12);
            prop_assert!(sp.frequency_cap <= 1.0 + 1e-12);
        }
    }

    /// Readings synthesised from an affine power model: the online
    /// forgetting-least-squares estimator must recover the model's
    /// static/dynamic split almost exactly (the trace is noise-free, so the
    /// only error budget is floating-point conditioning).
    #[test]
    fn split_estimate_converges_to_the_configured_model_split(
        base_watts in 2.0f64..30.0,
        dynamic_watts in 0.5f64..8.0,
        utilisations in collection::vec(0.0f64..4.0, 8..64),
    ) {
        // A watt envelope keeps the controller observing forever (no
        // horizon); the estimator rides along on every observation.
        let mut controller = BudgetController::new(BudgetConfig::new(
            BudgetTarget::WattEnvelope { watts: base_watts },
        ));
        let mut elapsed = 0.0f64;
        let mut busy = 0.0f64;
        // Two fixed anchor utilisations guarantee the trace has rank even if
        // every generated utilisation collapses to the same value.
        for u in [0.0, 2.0].iter().chain(utilisations.iter()) {
            elapsed += STEP_SECONDS;
            busy += u * STEP_SECONDS;
            let joules = base_watts * elapsed + dynamic_watts * busy;
            controller.observe(elapsed, &reading(elapsed, busy, joules));
        }
        let (fitted_base, fitted_dynamic) = controller
            .estimator()
            .split()
            .expect("anchored trace has rank");
        prop_assert!(
            (fitted_base - base_watts).abs() <= 1e-3 * base_watts,
            "base split off: fitted {fitted_base}, model {base_watts}"
        );
        prop_assert!(
            (fitted_dynamic - dynamic_watts).abs() <= 1e-3 * dynamic_watts,
            "dynamic split off: fitted {fitted_dynamic}, model {dynamic_watts}"
        );
    }

    /// The controller replays bit-for-bit: identical observation sequences
    /// produce identical setpoints and spend down to the last mantissa bit.
    #[test]
    fn controller_replay_is_bit_deterministic(
        budget_joules in 1.0f64..100.0,
        watts in collection::vec(0.1f64..20.0, 1..40),
        utilisation in 0.0f64..2.0,
    ) {
        let horizon = watts.len() as f64 * STEP_SECONDS * 2.0;
        let config = joule_config(budget_joules, horizon);
        let mut first = BudgetController::new(config);
        let mut second = BudgetController::new(config);
        let mut elapsed = 0.0f64;
        let mut joules = 0.0f64;
        for w in &watts {
            elapsed += STEP_SECONDS;
            joules += w * STEP_SECONDS;
            let r = reading(elapsed, utilisation * elapsed, joules);
            let a = first.observe(elapsed, &r);
            let b = second.observe(elapsed, &r);
            prop_assert_eq!(a.ratio_scale.to_bits(), b.ratio_scale.to_bits());
            prop_assert_eq!(a.frequency_cap.to_bits(), b.frequency_cap.to_bits());
            prop_assert_eq!(a.watt_cap.to_bits(), b.watt_cap.to_bits());
            prop_assert_eq!(a.austerity.to_bits(), b.austerity.to_bits());
            prop_assert_eq!(a.exhausted, b.exhausted);
        }
        let spent = |c: &BudgetController| c.last_observation().map(|last| last.joules.to_bits());
        prop_assert_eq!(spent(&first), spent(&second));
        prop_assert_eq!(
            first.setpoint().austerity.to_bits(),
            second.setpoint().austerity.to_bits()
        );
    }
}
