//! Admission control with tiered graceful degradation.
//!
//! The controller sits in front of the runtime and watches three signals:
//! queue depth (normalised to a watermark), the deadline-miss rate, and the
//! observed service time (all EWMA-smoothed, all clock-free — the caller
//! feeds it observations, so the same controller drives the live server and
//! the virtual-time simulator).
//!
//! Its response to pressure is strictly ordered, mirroring the paper's
//! quality/energy ladder:
//!
//! 1. **Degrade first** — between `downgrade_start` and `shed_start`
//!    pressure, requests are admitted at progressively lower tiers of their
//!    own quality ladder (lower significance, less work). Full-quality
//!    service resumes only after recovery.
//! 2. **Shed last** — above `shed_start` pressure (and only while the
//!    hysteresis flag is up), requests whose best-tier significance falls
//!    below a rising cutoff are rejected outright. The cutoff is a single
//!    threshold over significance, so at any instant the shed set is a
//!    prefix of the significance axis: strictly lowest-first, verifiable
//!    from the per-level shed histogram.
//!
//! **Hysteresis**: overload is entered at `enter_overload` smoothed pressure
//! (or a deadline-miss EWMA above `miss_watermark`) but exited only below
//! `exit_overload`. While the flag is up, even low instantaneous pressure
//! keeps requests one tier down — the system drains its backlog at reduced
//! quality instead of oscillating between full quality and shedding.

use crate::request::RequestClass;

/// Tuning for [`AdmissionController`]. Pressure is queue depth divided by
/// `queue_watermark`, EWMA-smoothed with `pressure_alpha`.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Queue depth at which pressure reads 1.0.
    pub queue_watermark: usize,
    /// Pressure at which tier downgrade begins.
    pub downgrade_start: f64,
    /// Pressure at which shedding begins (must exceed `downgrade_start`;
    /// between the two, the controller only downgrades).
    pub shed_start: f64,
    /// Pressure at which the shed cutoff reaches `max_shed_significance`.
    pub shed_full: f64,
    /// Upper bound on the shed significance cutoff, strictly below 1.0:
    /// critical (significance 1.0) requests are never shed.
    pub max_shed_significance: f64,
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
            downgrade_start: 0.25,
            shed_start: 1.0,
            shed_full: 3.0,
            max_shed_significance: 0.95,
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
        assert!(self.downgrade_start < self.shed_start);
        assert!(self.shed_start < self.shed_full);
        assert!((0.0..1.0).contains(&self.max_shed_significance));
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
    /// quality).
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
    decisions: u64,
    downgraded: u64,
    shed: u64,
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
            decisions: 0,
            downgraded: 0,
            shed: 0,
        }
    }

    /// Compose queue pressure with energy-budget pressure: the budget's
    /// austerity is mapped onto the same `[downgrade_start, shed_full]`
    /// response axis and the **stricter** signal wins, so a tight budget
    /// degrades/sheds exactly like a deep queue would — same ordering, same
    /// critical-exemption — and a zero budget signal changes nothing.
    fn effective_pressure(&self) -> f64 {
        if self.budget_pressure <= 0.0 {
            return self.pressure;
        }
        let config = &self.config;
        let mapped = config.downgrade_start
            + self.budget_pressure * (config.shed_full - config.downgrade_start);
        self.pressure.max(mapped)
    }

    /// Feed the energy-budget controller's austerity (`0.0` = slack, `1.0` =
    /// budget exhausted) into admission. See
    /// [`AdmissionController::effective_pressure`].
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
        self.decisions += 1;

        // Shed last: only while the flag is up and pressure sits above
        // `shed_start`. One rising significance cutoff ⇒ the shed set is
        // always a prefix of the significance axis (lowest first).
        if self.overloaded && pressure >= config.shed_start {
            let span = config.shed_full - config.shed_start;
            let depth = ((pressure - config.shed_start) / span).clamp(0.0, 1.0);
            let cutoff = config.max_shed_significance * depth;
            if class.significance() < cutoff {
                self.shed += 1;
                return AdmissionDecision::Shed;
            }
        }

        // Degrade first: map pressure in [downgrade_start, shed_start] onto
        // the class's ladder depth. While the overload flag is up, stay at
        // least one tier down so the backlog drains before full quality
        // resumes.
        let span = config.shed_start - config.downgrade_start;
        let depth = ((pressure - config.downgrade_start) / span).clamp(0.0, 1.0);
        let ladder = class.tiers.len().saturating_sub(1);
        let mut tier = (depth * ladder as f64).ceil() as usize;
        if self.overloaded && ladder > 0 {
            tier = tier.max(1);
        }
        let tier = class.clamp_tier(tier);
        if tier > 0 {
            self.downgraded += 1;
        }
        AdmissionDecision::Admit { tier }
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

    /// Current energy-budget pressure (austerity) fed via
    /// [`AdmissionController::set_budget_pressure`].
    pub fn budget_pressure(&self) -> f64 {
        self.budget_pressure
    }

    /// Whether the hysteresis overload flag is currently up.
    pub fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// Smoothed deadline-miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        self.miss_rate
    }

    /// EWMA of observed attempt service time, nanoseconds — the expected
    /// cost of one more attempt, used to budget retries against deadlines.
    pub fn expected_service_nanos(&self) -> u64 {
        self.service_nanos as u64
    }

    /// `(decisions, downgraded, shed)` counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.decisions, self.downgraded, self.shed)
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
}
