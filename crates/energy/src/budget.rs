//! Online energy-budget controller: close the loop from *observed* energy
//! readings back to the runtime's quality and frequency knobs.
//!
//! The paper's model takes a quality **ratio** as input and reports energy as
//! output. This module inverts that: given a target — a total joule budget
//! over a horizon, or a watt envelope — a [`BudgetController`] runs a
//! feedback loop over cumulative [`EnergyReading`] deltas and emits
//! [`BudgetSetpoint`]s: a multiplicative per-group significance-ratio scale,
//! a frequency cap for approximate work, and a watt cap for fleet-level
//! actuators. The controller never trusts the configured power model: an
//! embedded [`SplitEstimator`] recovers the observed static/dynamic split
//! online by exponentially-weighted least squares over reading deltas, so the
//! loop reads only each reading's `joules` and busy time, never its
//! breakdown: a package counter that reports no split would steer it the same
//! way the modelled ledger does.
//!
//! Everything here is **pure and deterministic**: the caller supplies time
//! and readings; the controller holds no clocks, no randomness and no
//! threads. Replaying the same observation sequence reproduces the same
//! setpoint sequence bit-for-bit, which is what the conformance and property
//! batteries assert.

use serde::{Deserialize, Serialize};

use crate::meter::EnergyReading;

/// What the controller steers toward.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BudgetTarget {
    /// Spend at most `joules` over `horizon_seconds` of wall-clock time.
    ///
    /// The sustainable rate is re-planned every observation from what is
    /// *left*: `(joules - spent) / (horizon - elapsed)`, so overspending
    /// early automatically tightens the remainder of the run.
    TotalJoules {
        /// Total energy budget for the horizon, in joules.
        joules: f64,
        /// Wall-clock horizon over which the budget applies, in seconds.
        horizon_seconds: f64,
    },
    /// Hold average package power at or under `watts` indefinitely.
    WattEnvelope {
        /// The power envelope, in watts.
        watts: f64,
    },
}

impl BudgetTarget {
    /// The planned sustainable power at `elapsed` seconds with `spent` joules
    /// already consumed. Always positive (floored at a small epsilon so the
    /// controller saturates instead of dividing by zero when the budget is
    /// exhausted or the horizon has passed).
    pub fn planned_watts(&self, elapsed_seconds: f64, spent_joules: f64) -> f64 {
        const FLOOR: f64 = 1e-9;
        match *self {
            BudgetTarget::TotalJoules {
                joules,
                horizon_seconds,
            } => {
                let remaining_j = (joules - spent_joules).max(0.0);
                let remaining_t = (horizon_seconds - elapsed_seconds).max(FLOOR);
                (remaining_j / remaining_t).max(FLOOR)
            }
            BudgetTarget::WattEnvelope { watts } => watts.max(FLOOR),
        }
    }

    /// Total joules this target allows (`None` for an open-ended envelope).
    pub fn total_joules(&self) -> Option<f64> {
        match *self {
            BudgetTarget::TotalJoules { joules, .. } => Some(joules),
            BudgetTarget::WattEnvelope { .. } => None,
        }
    }
}

/// Tuning knobs for the [`BudgetController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetConfig {
    /// The budget being enforced.
    pub target: BudgetTarget,
    /// Fractional tolerance band around the target (e.g. `0.1` = ±10%).
    /// Spending inside `target × (1 + tolerance)` is conformant.
    pub tolerance: f64,
    /// Proportional gain on the normalised power error per observation.
    /// Higher converges faster but rings; the default is conservative.
    pub gain: f64,
    /// Floor of the significance-ratio scale at maximum austerity. The
    /// effective ratio of a group never drops below `base_ratio ×
    /// min_ratio_scale`, and critical (ratio-1.0 / accurate) work is never
    /// scaled at all.
    pub min_ratio_scale: f64,
    /// Floor of the approximate-work frequency cap at maximum austerity.
    /// [`BudgetController::new`] clamps it like [`BudgetConfig::cap_floor`].
    pub cap_floor: f64,
    /// EWMA smoothing factor for the observed power rate (weight of the
    /// newest delta; `1.0` = no smoothing).
    pub power_alpha: f64,
    /// Exponential forgetting factor passed to the [`SplitEstimator`].
    pub split_forgetting: f64,
}

impl BudgetConfig {
    /// A conservative default configuration for `target`.
    pub fn new(target: BudgetTarget) -> Self {
        BudgetConfig {
            target,
            tolerance: 0.10,
            gain: 0.25,
            min_ratio_scale: 0.0,
            cap_floor: 0.4,
            power_alpha: 0.5,
            split_forgetting: 0.97,
        }
    }

    /// Set the tolerance band (fractional, e.g. `0.1` for ±10%).
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance.max(0.0);
        self
    }

    /// Set the proportional gain.
    pub fn gain(mut self, gain: f64) -> Self {
        self.gain = gain.clamp(0.0, 1.0);
        self
    }

    /// Set the ratio-scale floor reached at maximum austerity.
    pub fn min_ratio_scale(mut self, scale: f64) -> Self {
        self.min_ratio_scale = scale.clamp(0.0, 1.0);
        self
    }

    /// Set the frequency-cap floor reached at maximum austerity, clamped to
    /// `[0.05, 1]` — the one statement of the lowest cap the budget loop
    /// ever hands to a dispatch-cap actuator.
    pub fn cap_floor(mut self, floor: f64) -> Self {
        self.cap_floor = floor.clamp(0.05, 1.0);
        self
    }
}

/// One control output: the knob positions the runtime tiers apply.
///
/// All fields are monotone in budget headroom: more headroom never lowers
/// `ratio_scale` or `frequency_cap`, and never lowers `watt_cap` for a fixed
/// plan (the property battery asserts this).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetSetpoint {
    /// Multiplier in `[min_ratio_scale, 1]` applied to per-group
    /// significance ratios (groups at ratio 1.0 are exempt — critical work
    /// is never degraded by the budget).
    pub ratio_scale: f64,
    /// Frequency cap in `[cap_floor, 1]` for approximate dispatches, fed to
    /// the execution environment's re-targetable cap hook.
    pub frequency_cap: f64,
    /// Sustainable package/fleet power for the *remaining* run, in watts —
    /// the actuator value for the cluster's global power-cap controller.
    pub watt_cap: f64,
    /// Internal austerity level in `[0, 1]` (`0` = budget slack, `1` =
    /// maximum throttling). Serving tiers compose this with their admission
    /// pressure.
    pub austerity: f64,
    /// True once the budget is fully spent (total-joule targets only):
    /// serving tiers should defer or shed deferrable work outright.
    pub exhausted: bool,
}

impl BudgetSetpoint {
    /// The no-op setpoint emitted before any observation arrives.
    pub fn unconstrained(watt_cap: f64) -> Self {
        BudgetSetpoint {
            ratio_scale: 1.0,
            frequency_cap: 1.0,
            watt_cap,
            austerity: 0.0,
            exhausted: false,
        }
    }
}

/// Exponentially-forgetting least-squares estimator of the observed
/// static/dynamic power split.
///
/// Each sample is one reading delta `(Δwall, Δbusy, ΔJ)`; the fitted model is
/// `ΔJ ≈ base_watts·Δwall + dynamic_watts·Δbusy`, i.e. the affine power
/// model's own shape with `base_watts = P_static + cores·P_idle` (power that
/// flows whenever the package is on) and `dynamic_watts = P_active − P_idle`
/// (the *extra* power of a busy core over an idle one). The normal equations
/// are kept as five decayed sums, so the estimator is O(1) per sample and
/// fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitEstimator {
    forgetting: f64,
    s_ww: f64,
    s_wb: f64,
    s_bb: f64,
    s_wj: f64,
    s_bj: f64,
    samples: u64,
}

impl SplitEstimator {
    /// New estimator with forgetting factor `forgetting` in `(0, 1]`
    /// (`1.0` = plain least squares over all history).
    pub fn new(forgetting: f64) -> Self {
        SplitEstimator {
            forgetting: forgetting.clamp(1e-3, 1.0),
            s_ww: 0.0,
            s_wb: 0.0,
            s_bb: 0.0,
            s_wj: 0.0,
            s_bj: 0.0,
            samples: 0,
        }
    }

    /// Feed one reading delta. Non-positive wall deltas are ignored (a
    /// stalled clock carries no information).
    pub fn push(&mut self, delta_wall: f64, delta_busy: f64, delta_joules: f64) {
        if delta_wall.is_nan()
            || delta_wall <= 0.0
            || !delta_busy.is_finite()
            || !delta_joules.is_finite()
        {
            return;
        }
        let l = self.forgetting;
        self.s_ww = l * self.s_ww + delta_wall * delta_wall;
        self.s_wb = l * self.s_wb + delta_wall * delta_busy;
        self.s_bb = l * self.s_bb + delta_busy * delta_busy;
        self.s_wj = l * self.s_wj + delta_wall * delta_joules;
        self.s_bj = l * self.s_bj + delta_busy * delta_joules;
        self.samples += 1;
    }

    /// Number of samples absorbed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// `(base_watts, dynamic_watts_per_busy_core)` — the fitted split, or
    /// `None` before the trace has enough rank to separate the two terms
    /// (e.g. utilisation pinned at a constant: wall and busy collinear).
    pub fn split(&self) -> Option<(f64, f64)> {
        if self.samples < 2 {
            return None;
        }
        let det = self.s_ww * self.s_bb - self.s_wb * self.s_wb;
        // Normalised rank test: collinear (Δwall, Δbusy) pairs make the
        // Gram determinant vanish relative to its diagonal product.
        if det <= 1e-9 * self.s_ww * self.s_bb || det <= 0.0 {
            return None;
        }
        let base = (self.s_bb * self.s_wj - self.s_wb * self.s_bj) / det;
        let dynamic = (self.s_ww * self.s_bj - self.s_wb * self.s_wj) / det;
        Some((base, dynamic))
    }

    /// The observed static share of power at utilisation `busy_cores`
    /// (busy core-seconds per wall second): `base / (base + dyn·busy)`.
    /// Falls back to `None` when the split is not yet identifiable.
    pub fn static_fraction_at(&self, busy_cores: f64) -> Option<f64> {
        let (base, dynamic) = self.split()?;
        let total = base + dynamic * busy_cores.max(0.0);
        if total <= 0.0 {
            return None;
        }
        Some((base / total).clamp(0.0, 1.0))
    }
}

/// One cumulative observation a [`BudgetController`] was fed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BudgetObservation {
    /// Time of the observation, seconds since the controller's epoch.
    pub elapsed_seconds: f64,
    /// Cumulative busy core-seconds at that time.
    pub busy_core_seconds: f64,
    /// Cumulative joules at that time.
    pub joules: f64,
}

/// Feedback controller mapping observed energy readings to setpoints.
///
/// Call [`BudgetController::observe`] with monotone time and the
/// *cumulative* reading at that time (as produced by `energy_report_at` /
/// `ExecutionEnv::report`); the controller differences consecutive readings
/// itself. State updates are pure f64 arithmetic — replays are
/// bit-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetController {
    config: BudgetConfig,
    estimator: SplitEstimator,
    last: Option<BudgetObservation>,
    /// EWMA of the observed power rate, watts.
    observed_watts: f64,
    /// Austerity in `[0, 1]`; the single internal control state.
    austerity: f64,
    /// Last emitted setpoint (re-emitted on degenerate observations).
    setpoint: BudgetSetpoint,
}

impl BudgetController {
    /// New controller for `config`, starting unconstrained.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if `gain`, `min_ratio_scale`, `cap_floor`
    /// or `power_alpha` is NaN: clamping passes NaN through, and a NaN knob
    /// would reach every setpoint.
    pub fn new(config: BudgetConfig) -> Self {
        for (field, value) in [
            ("gain", config.gain),
            ("min_ratio_scale", config.min_ratio_scale),
            ("cap_floor", config.cap_floor),
            ("power_alpha", config.power_alpha),
        ] {
            assert!(!value.is_nan(), "BudgetConfig::{field} is NaN");
        }
        // The field is public: re-apply the builder's floor, so every
        // setpoint's `frequency_cap` is a valid dispatch cap as emitted.
        let config = config.cap_floor(config.cap_floor);
        let initial_cap = config.target.planned_watts(0.0, 0.0);
        BudgetController {
            config,
            estimator: SplitEstimator::new(config.split_forgetting),
            last: None,
            observed_watts: 0.0,
            austerity: 0.0,
            setpoint: BudgetSetpoint::unconstrained(initial_cap),
        }
    }

    /// The configuration this controller enforces.
    pub fn config(&self) -> &BudgetConfig {
        &self.config
    }

    /// The online split estimator (for inspection/tests).
    pub fn estimator(&self) -> &SplitEstimator {
        &self.estimator
    }

    /// Cumulative joules observed so far.
    pub fn spent_joules(&self) -> f64 {
        self.last.map_or(0.0, |last| last.joules)
    }

    /// The last cumulative observation, or `None` before the first one.
    /// This is the anchor for cross-tier accounting checks: `joules` must
    /// equal the meter/ledger sum re-read at `elapsed_seconds`, bit for bit.
    pub fn last_observation(&self) -> Option<BudgetObservation> {
        self.last
    }

    /// The most recent setpoint without feeding a new observation.
    pub fn setpoint(&self) -> BudgetSetpoint {
        self.setpoint
    }

    /// Feed the cumulative reading at `elapsed_seconds` and get the next
    /// setpoint. Observations with non-increasing time re-emit the previous
    /// setpoint unchanged (time must advance for a rate to exist).
    pub fn observe(&mut self, elapsed_seconds: f64, cumulative: &EnergyReading) -> BudgetSetpoint {
        let joules = cumulative.joules;
        let busy = cumulative.busy_core_seconds;
        let prev = self.last.unwrap_or_default();
        if elapsed_seconds.is_nan()
            || elapsed_seconds <= prev.elapsed_seconds
            || !joules.is_finite()
        {
            return self.setpoint;
        }
        let dt = elapsed_seconds - prev.elapsed_seconds;
        let dj = (joules - prev.joules).max(0.0);
        let db = (busy - prev.busy_core_seconds).max(0.0);
        self.last = Some(BudgetObservation {
            elapsed_seconds,
            busy_core_seconds: busy,
            joules,
        });
        self.estimator.push(dt, db, dj);

        let rate = dj / dt;
        let alpha = self.config.power_alpha.clamp(1e-3, 1.0);
        self.observed_watts =
            if prev.elapsed_seconds == 0.0 && prev.joules == 0.0 && self.observed_watts == 0.0 {
                rate
            } else {
                alpha * rate + (1.0 - alpha) * self.observed_watts
            };

        let planned = self.config.target.planned_watts(elapsed_seconds, joules);
        // Normalised headroom: +1 = a full planned-rate of slack, negative =
        // overspending. Austerity integrates the error with proportional
        // gain, so persistent overspend ratchets the knobs down and
        // persistent slack releases them — monotone in headroom each step.
        let headroom = ((planned - self.observed_watts) / planned).clamp(-1.0, 1.0);
        self.austerity = (self.austerity - self.config.gain * headroom).clamp(0.0, 1.0);

        let exhausted = self
            .config
            .target
            .total_joules()
            .is_some_and(|budget| joules >= budget);
        let austerity = if exhausted { 1.0 } else { self.austerity };
        self.setpoint = BudgetSetpoint {
            ratio_scale: 1.0 - austerity * (1.0 - self.config.min_ratio_scale),
            frequency_cap: 1.0 - austerity * (1.0 - self.config.cap_floor),
            watt_cap: planned,
            austerity,
            exhausted,
        };
        self.setpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::EnergyBreakdown;

    fn reading(wall: f64, busy: f64, joules: f64) -> EnergyReading {
        EnergyReading {
            wall_seconds: wall,
            busy_core_seconds: busy,
            joules,
            average_watts: if wall > 0.0 { joules / wall } else { 0.0 },
            breakdown: EnergyBreakdown {
                dynamic_joules: joules,
                ..Default::default()
            },
        }
    }

    fn joule_config(joules: f64, horizon: f64) -> BudgetConfig {
        BudgetConfig::new(BudgetTarget::TotalJoules {
            joules,
            horizon_seconds: horizon,
        })
    }

    #[test]
    fn on_plan_spending_stays_unconstrained() {
        let mut c = BudgetController::new(joule_config(100.0, 10.0));
        for step in 1..=9 {
            let t = step as f64;
            // Exactly the planned 10 W.
            let sp = c.observe(t, &reading(t, t, 10.0 * t));
            assert!(
                sp.ratio_scale > 0.95,
                "on-plan spending must not throttle: {sp:?}"
            );
        }
        // The final step lands exactly on the budget: exhaustion saturates.
        assert!(c.observe(10.0, &reading(10.0, 10.0, 100.0)).exhausted);
    }

    #[test]
    fn overspend_raises_austerity_and_lowers_setpoints() {
        let mut c = BudgetController::new(joule_config(100.0, 10.0));
        // Spend at 3x the plan.
        let sp1 = c.observe(1.0, &reading(1.0, 2.0, 30.0));
        let sp2 = c.observe(2.0, &reading(2.0, 4.0, 60.0));
        assert!(sp1.austerity > 0.0);
        assert!(sp2.austerity >= sp1.austerity);
        assert!(sp2.ratio_scale < 1.0);
        assert!(sp2.frequency_cap < 1.0);
        // Watt cap tightens as the remaining budget shrinks faster than time.
        assert!(sp2.watt_cap < 100.0 / 10.0);
    }

    #[test]
    fn a_nan_knob_is_rejected_at_construction() {
        let base = joule_config(100.0, 10.0);
        let nan = f64::NAN;
        // The builders clamp, and clamping passes NaN through.
        let poisoned = [
            ("gain", base.gain(nan)),
            ("min_ratio_scale", base.min_ratio_scale(nan)),
            ("cap_floor", base.cap_floor(nan)),
            (
                "power_alpha",
                BudgetConfig {
                    power_alpha: nan,
                    ..base
                },
            ),
        ];
        for (field, config) in poisoned {
            let panic = std::panic::catch_unwind(|| BudgetController::new(config))
                .expect_err("a NaN knob must not build a controller");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert_eq!(message, &format!("BudgetConfig::{field} is NaN"));
        }
    }

    #[test]
    fn exhausted_budget_saturates() {
        let mut c = BudgetController::new(joule_config(50.0, 10.0));
        let sp = c.observe(1.0, &reading(1.0, 1.0, 60.0));
        assert!(sp.exhausted);
        assert_eq!(sp.austerity, 1.0);
        assert!((sp.ratio_scale - c.config().min_ratio_scale).abs() < 1e-12);
    }

    #[test]
    fn underspend_releases_austerity() {
        let mut c = BudgetController::new(joule_config(100.0, 10.0));
        // Overspend first...
        c.observe(1.0, &reading(1.0, 2.0, 30.0));
        let tight = c.setpoint();
        // ...then coast far below the plan.
        let mut last = tight;
        for step in 2..=6 {
            let t = step as f64;
            last = c.observe(t, &reading(t, 2.0, 30.0 + 0.1 * (t - 1.0)));
        }
        assert!(
            last.ratio_scale > tight.ratio_scale,
            "slack must release the throttle: {last:?} vs {tight:?}"
        );
    }

    #[test]
    fn watt_envelope_tracks_constant_plan() {
        let mut c = BudgetController::new(BudgetConfig::new(BudgetTarget::WattEnvelope {
            watts: 20.0,
        }));
        let sp = c.observe(1.0, &reading(1.0, 1.0, 40.0));
        assert_eq!(sp.watt_cap, 20.0);
        assert!(sp.austerity > 0.0, "40 W under a 20 W envelope throttles");
    }

    #[test]
    fn controller_replay_is_bit_deterministic() {
        let run = || {
            let mut c = BudgetController::new(joule_config(80.0, 8.0));
            let mut out = Vec::new();
            for step in 1..=20 {
                let t = step as f64 * 0.4;
                let j = 9.0 * t + (step % 3) as f64;
                out.push(c.observe(t, &reading(t, 1.5 * t, j)));
            }
            out
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ratio_scale.to_bits(), y.ratio_scale.to_bits());
            assert_eq!(x.frequency_cap.to_bits(), y.frequency_cap.to_bits());
            assert_eq!(x.watt_cap.to_bits(), y.watt_cap.to_bits());
        }
    }

    #[test]
    fn split_estimator_recovers_affine_model() {
        // Synthetic trace from E = 12 W·wall + 5.6 W·busy with varying
        // utilisation so the Gram matrix has rank 2.
        let mut est = SplitEstimator::new(0.99);
        for k in 0..200 {
            let dw = 0.1;
            let db = 0.1 * ((k % 7) as f64) / 6.0 * 4.0; // 0..0.4 busy core-s
            let dj = 12.0 * dw + 5.6 * db;
            est.push(dw, db, dj);
        }
        let (base, dynamic) = est.split().expect("identifiable");
        assert!((base - 12.0).abs() < 1e-6, "base {base}");
        assert!((dynamic - 5.6).abs() < 1e-6, "dynamic {dynamic}");
    }

    #[test]
    fn split_estimator_rejects_collinear_traces() {
        let mut est = SplitEstimator::new(0.99);
        for _ in 0..50 {
            est.push(0.1, 0.2, 3.0); // utilisation pinned: rank 1
        }
        assert!(est.split().is_none());
    }

    #[test]
    fn static_fraction_matches_model() {
        let mut est = SplitEstimator::new(1.0);
        for k in 0..100 {
            let dw = 0.05;
            let db = dw * (k % 5) as f64; // 0..4 busy cores
            est.push(dw, db, 10.0 * dw + 2.0 * db);
        }
        let f = est.static_fraction_at(2.0).expect("identifiable");
        assert!((f - 10.0 / 14.0).abs() < 1e-6, "{f}");
    }
}
