//! Admission control with tiered graceful degradation.
//!
//! The controller sits in front of the runtime and watches three signals:
//! queue depth (normalised to a watermark), the deadline-miss rate, and the
//! observed service time (all EWMA-smoothed, all clock-free — the caller
//! feeds it observations, so the same controller drives the live server and
//! the virtual-time simulator).
//!
//! Its response to pressure is the one [`SignificanceCutoff`] ramp the
//! runtime's brownout and the fleet's admission use too: degrade first
//! (lower tiers of the request's own ladder between `degrade_start` and
//! `shed_start`), shed last (best-tier significance below the rising
//! cutoff), so the shed set is a prefix of the significance axis,
//! verifiable from the per-level shed histogram.
//!
//! **Hysteresis** is this controller's own, not the ramp's: shedding needs
//! the overload flag, which is raised at `enter_overload` smoothed pressure
//! (or a deadline-miss EWMA above `miss_watermark`) but cleared only below
//! `exit_overload`. While the flag is up, even low instantaneous pressure
//! keeps requests one tier down — the system drains its backlog at reduced
//! quality instead of oscillating between full quality and shedding. The
//! ramp stays stateless: the brownout and the fleet shed without a flag,
//! and giving them one would change the runtime's behaviour and the
//! fleet's replays.

use sig_core::SignificanceCutoff;

use crate::request::RequestClass;

/// Tuning for [`AdmissionController`]. Pressure is queue depth divided by
/// `queue_watermark`, EWMA-smoothed with `pressure_alpha`.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Queue depth at which pressure reads 1.0.
    pub queue_watermark: usize,
    /// The degrade-then-shed ramp over pressure.
    pub cutoff: SignificanceCutoff,
    /// Smoothed pressure that raises the overload flag.
    pub enter_overload: f64,
    /// Smoothed pressure below which the flag clears (must be below
    /// `enter_overload` — the hysteresis band).
    pub exit_overload: f64,
    /// Deadline-miss EWMA that forces the overload flag regardless of queue
    /// depth (a saturated-but-short queue still misses deadlines), in
    /// `[0, 1]`.
    pub miss_watermark: f64,
    /// EWMA smoothing factor for pressure and miss rate, in `(0, 1]`.
    pub pressure_alpha: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_watermark: 32,
            cutoff: SignificanceCutoff {
                degrade_start: 0.25,
                shed_start: 1.0,
                shed_full: 3.0,
                max_shed_significance: 0.95,
            },
            enter_overload: 1.0,
            exit_overload: 0.5,
            miss_watermark: 0.5,
            pressure_alpha: 0.1,
        }
    }
}

impl AdmissionConfig {
    fn validate(&self) {
        assert!(self.queue_watermark > 0);
        self.cutoff.validate();
        assert!(self.exit_overload < self.enter_overload);
        // With a NaN watermark the overload flag, once up, never clears.
        assert!((0.0..=1.0).contains(&self.miss_watermark));
        assert!(self.pressure_alpha > 0.0 && self.pressure_alpha <= 1.0);
    }
}

/// What to do with one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admit at the given tier of the request class's ladder (0 = full
    /// quality). From the fleet's admission the tier is a floor under the
    /// node's own verdict.
    Admit {
        /// Ladder index to run the request at.
        tier: usize,
    },
    /// Reject: the request is accounted as shed, never spawned.
    Shed,
}

/// Serving-layer admission controller (see module docs). Clock-free and
/// single-threaded by design: the submission path owns it.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    pressure: f64,
    /// Energy-budget austerity in `[0, 1]`, composed with queue pressure in
    /// [`AdmissionController::effective_pressure`]. `0.0` = no budget.
    budget_pressure: f64,
    miss_rate: f64,
    service_nanos: f64,
    overloaded: bool,
}

impl AdmissionController {
    /// A controller with the given tuning.
    pub fn new(config: AdmissionConfig) -> Self {
        config.validate();
        AdmissionController {
            config,
            pressure: 0.0,
            budget_pressure: 0.0,
            miss_rate: 0.0,
            service_nanos: 0.0,
            overloaded: false,
        }
    }

    /// Compose queue pressure with energy-budget pressure: the budget's
    /// austerity is mapped onto the same `[degrade_start, shed_full]`
    /// response axis and the **stricter** signal wins, so a tight budget
    /// degrades/sheds exactly like a deep queue would — same ordering, same
    /// critical-exemption — and a zero budget signal changes nothing.
    fn effective_pressure(&self) -> f64 {
        if self.budget_pressure <= 0.0 {
            return self.pressure;
        }
        let cutoff = &self.config.cutoff;
        let mapped =
            cutoff.degrade_start + self.budget_pressure * (cutoff.shed_full - cutoff.degrade_start);
        self.pressure.max(mapped)
    }

    /// Feed the energy-budget controller's austerity (`0.0` = slack, `1.0` =
    /// budget exhausted) into admission. See
    /// `AdmissionController::effective_pressure`.
    pub fn set_budget_pressure(&mut self, austerity: f64) {
        self.budget_pressure = austerity.clamp(0.0, 1.0);
    }

    /// Decide admission for one request of `class` given the current queue
    /// depth (requests admitted but not yet completed).
    pub fn decide(&mut self, class: &RequestClass, queue_depth: usize) -> AdmissionDecision {
        let config = &self.config;
        let raw = queue_depth as f64 / config.queue_watermark as f64;
        self.pressure += config.pressure_alpha * (raw - self.pressure);
        let pressure = self.effective_pressure();

        // Hysteresis on the smoothed signals.
        if !self.overloaded
            && (pressure >= config.enter_overload || self.miss_rate >= config.miss_watermark)
        {
            self.overloaded = true;
        } else if self.overloaded
            && pressure <= config.exit_overload
            && self.miss_rate < config.miss_watermark * 0.5
        {
            self.overloaded = false;
        }

        // Shed last, only while the flag is up: below `shed_start` the
        // cutoff is 0, which sheds nothing.
        if self.overloaded && class.significance() < config.cutoff.shed_cutoff(pressure) {
            return AdmissionDecision::Shed;
        }

        // Degrade first: map the degrade depth onto the class's ladder.
        // While the overload flag is up, stay at least one tier down so the
        // backlog drains before full quality resumes.
        let depth = config.cutoff.degrade_depth(pressure);
        let ladder = class.tiers.len().saturating_sub(1);
        let mut tier = (depth * ladder as f64).ceil() as usize;
        if self.overloaded && ladder > 0 {
            tier = tier.max(1);
        }
        AdmissionDecision::Admit {
            tier: class.clamp_tier(tier),
        }
    }

    /// Feed back one completed attempt: its service time and whether the
    /// request missed its deadline.
    pub fn observe(&mut self, service_nanos: u64, deadline_missed: bool) {
        let alpha = self.config.pressure_alpha;
        self.service_nanos += alpha * (service_nanos as f64 - self.service_nanos);
        let miss = if deadline_missed { 1.0 } else { 0.0 };
        self.miss_rate += alpha * (miss - self.miss_rate);
    }

    /// Smoothed queue pressure (1.0 = at the watermark).
    pub fn pressure(&self) -> f64 {
        self.pressure
    }

    /// Whether the hysteresis overload flag is currently up.
    pub fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// Smoothed deadline-miss rate in `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn miss_rate(&self) -> f64 {
        self.miss_rate
    }

    /// EWMA of observed attempt service time, nanoseconds — the expected
    /// cost of one more attempt, used to budget retries against deadlines.
    pub fn expected_service_nanos(&self) -> u64 {
        self.service_nanos as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{QualityTier, RetryPolicy};
    use std::time::Duration;

    fn class(name: &str, significance: f64, tiers: usize) -> RequestClass {
        let tiers = (0..tiers)
            .map(|tier| QualityTier {
                significance: significance * (1.0 - 0.3 * tier as f64),
                work_factor: 1.0 / (tier + 1) as f64,
            })
            .collect();
        RequestClass {
            name: name.into(),
            tiers,
            deadline: Duration::from_millis(10),
            retry: RetryPolicy::none(),
        }
    }

    #[test]
    fn idle_system_admits_full_quality() {
        let mut controller = AdmissionController::new(AdmissionConfig::default());
        let c = class("c", 0.8, 3);
        for _ in 0..100 {
            assert_eq!(
                controller.decide(&c, 0),
                AdmissionDecision::Admit { tier: 0 }
            );
        }
        assert!(!controller.is_overloaded());
    }

    #[test]
    fn downgrade_engages_strictly_before_shedding() {
        let mut controller = AdmissionController::new(AdmissionConfig::default());
        let c = class("c", 0.6, 3);
        let mut first_downgrade = None;
        let mut first_shed = None;
        // Ramp queue depth 0..8× watermark; record when each response kicks in.
        for depth in 0..256usize {
            let decision = controller.decide(&c, depth);
            match decision {
                AdmissionDecision::Admit { tier } if tier > 0 && first_downgrade.is_none() => {
                    first_downgrade = Some(depth);
                }
                AdmissionDecision::Shed if first_shed.is_none() => {
                    first_shed = Some(depth);
                }
                _ => {}
            }
        }
        let downgrade = first_downgrade.expect("ramp must trigger downgrade");
        let shed = first_shed.expect("ramp must eventually shed");
        assert!(
            downgrade < shed,
            "downgrade at depth {downgrade} must precede shed at {shed}"
        );
    }

    #[test]
    fn shed_order_is_significance_monotone() {
        let mut controller = AdmissionController::new(AdmissionConfig::default());
        let low = class("low", 0.2, 1);
        let mid = class("mid", 0.6, 1);
        let critical = class("crit", 1.0, 1);
        // Saturate the smoothed pressure deep into the shed region.
        for _ in 0..500 {
            let _ = controller.decide(&critical, 200);
        }
        assert!(controller.is_overloaded());
        let shed_low = matches!(controller.decide(&low, 200), AdmissionDecision::Shed);
        let shed_mid = matches!(controller.decide(&mid, 200), AdmissionDecision::Shed);
        let shed_critical = matches!(controller.decide(&critical, 200), AdmissionDecision::Shed);
        assert!(shed_low, "lowest significance is shed first");
        assert!(shed_mid, "mid significance is shed at full depth");
        assert!(!shed_critical, "critical requests are never shed");
    }

    #[test]
    fn hysteresis_holds_degraded_until_exit_threshold() {
        let mut controller = AdmissionController::new(AdmissionConfig::default());
        let c = class("c", 0.8, 2);
        for _ in 0..500 {
            let _ = controller.decide(&c, 100);
        }
        assert!(controller.is_overloaded());
        // Pressure decays toward 0.75 — inside the hysteresis band
        // (exit 0.5 < 0.75 < enter 1.0): the flag must hold, and requests
        // stay at least one tier down.
        for _ in 0..500 {
            let decision = controller.decide(&c, 24);
            assert!(controller.is_overloaded(), "band holds the flag");
            if let AdmissionDecision::Admit { tier } = decision {
                assert!(tier >= 1, "overloaded admits at most tier-1 quality");
            }
        }
        // Queue drains: pressure decays below exit ⇒ full recovery.
        for _ in 0..500 {
            let _ = controller.decide(&c, 0);
        }
        assert!(!controller.is_overloaded());
        assert_eq!(
            controller.decide(&c, 0),
            AdmissionDecision::Admit { tier: 0 },
            "full quality resumes after recovery"
        );
    }

    #[test]
    fn miss_rate_alone_forces_overload() {
        let mut controller = AdmissionController::new(AdmissionConfig::default());
        let c = class("c", 0.8, 2);
        for _ in 0..200 {
            controller.observe(1_000, true);
        }
        assert!(controller.miss_rate() > 0.9);
        let _ = controller.decide(&c, 0);
        assert!(
            controller.is_overloaded(),
            "sustained deadline misses force the overload flag"
        );
        assert!(controller.expected_service_nanos() > 0);
    }

    fn with_miss_watermark(miss_watermark: f64) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            miss_watermark,
            ..AdmissionConfig::default()
        })
    }

    #[test]
    #[should_panic]
    fn nan_miss_watermark_rejected() {
        with_miss_watermark(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn negative_miss_watermark_rejected() {
        with_miss_watermark(-0.1);
    }

    #[test]
    #[should_panic]
    fn miss_watermark_above_one_rejected() {
        with_miss_watermark(1.5);
    }

    fn with_cutoff(
        edit: impl FnOnce(SignificanceCutoff) -> SignificanceCutoff,
    ) -> AdmissionController {
        let config = AdmissionConfig::default();
        AdmissionController::new(AdmissionConfig {
            cutoff: edit(config.cutoff),
            ..config
        })
    }

    #[test]
    #[should_panic(expected = "cutoff bound outside [0, 1)")]
    fn a_cutoff_that_sheds_critical_work_is_rejected() {
        with_cutoff(|c| SignificanceCutoff {
            max_shed_significance: 1.0,
            ..c
        });
    }

    #[test]
    #[should_panic(expected = "cutoff bound outside [0, 1)")]
    fn a_nan_cutoff_is_rejected() {
        with_cutoff(|c| SignificanceCutoff {
            max_shed_significance: f64::NAN,
            ..c
        });
    }

    #[test]
    #[should_panic(expected = "knees out of order")]
    fn shedding_before_degrading_is_rejected() {
        with_cutoff(|c| SignificanceCutoff {
            degrade_start: c.shed_start,
            ..c
        });
    }

    #[test]
    #[should_panic(expected = "knees out of order")]
    fn a_shed_ramp_out_of_order_is_rejected() {
        with_cutoff(|c| SignificanceCutoff {
            shed_full: c.shed_start,
            ..c
        });
    }
}
